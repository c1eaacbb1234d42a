"""Gibbs sampler for the multilevel score-clustering model.

One scan updates, in order: scores, noise precision, cluster parameters,
subject/channel allocations, category weights, stick proportions.

- The noise update reads the residual sum of squares from sufficient
  statistics (the score projections and Gram matrix of the Workspace),
  not from the curves.
- Array draws are plain Generator variates (standard_normal,
  standard_gamma) scaled and shifted in numpy, which skips the parameter
  checks that normal, gamma and dirichlet make on every call.
- The cluster update puts every cluster of every dimension on one flat
  index, takes member counts and sums as segment sums, and draws all
  means, then all precisions, in array calls.  A precision whose
  truncation point lies in the bulk of its gamma conditional (at most
  one sd above the mean) is an array gamma draw, redrawn while below the
  point; the others, and nonpositive shapes, take the scalar rejection
  sampler, which works in Python floats and math.
- The allocation update marginalizes the channel labels when choosing
  each subject's category.  One pass over all dimensions gives every
  category weight and, from one exponentiation of the per-channel
  mixture densities, the channel-label posterior.  One categorical draw
  then gives every dimension's categories, and one more the labels of
  every (dimension, subject) row in category 3.
- What no scan changes, the cluster_prior grids, the precision
  truncation points and the cluster_index slots, is a ChainConstants
  that run_chain builds once per chain and passes to every scan;
  gibbs_scan builds it when called without one.

The optional audit (``audit_every``) validates the state, checks the
scan's sufficient-statistic SSR against the direct residual sum, and
requires a finite log joint.  Chains are deterministic given (seed,
inputs).  Kept draws have one on-disk format, the chain files of a run
directory, which checkpoints also use.  Each chain file has its own
reader, and load_archives reads the files a caller names: diagnose needs
draws_scalar.csv only, summarize labels_g.csv only (its draw count then
comes from the settings in meta.json).
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .fpca import GROUP_A, EigenBasis, FunctionalDataset
from .hyperparams import HyperParams
from .model import (CAT_COMMON, CAT_GROUP, CAT_SUBJECT, FIRST_SUBJECT_LABEL, LOG_2PI,
                    ChainConstants, ModelState, chain_constants, cluster_index,
                    cluster_params_for_labels, cluster_prior, fitted_curves,
                    load_state, noise_loglik, residual_ssr, save_state,
                    scores_logprior, sticks_to_weights, validate_state)
from .tables import grid_index, read_table, scatter, write_table

# Audit tolerance on the residual sum of squares, relative to the scale of
# its rounding error (||c||^2 plus the sum itself): the expansion from
# sufficient statistics rounds at about 1e-16 of that scale.
AUDIT_TOL = 1e-10
_TINY_SS = 1e-300
# Rejection rounds of the truncated-gamma samplers before they give up.
_MAX_ROUNDS = 100000
_CATEGORIES = np.array([CAT_COMMON, CAT_GROUP, CAT_SUBJECT])


class SamplerError(RuntimeError):
    """Raised when a scan produces non-finite state."""


@dataclass
class SamplerConfig:
    n_iter: int
    burn_in: int = 0
    thin: int = 1
    n_chains: int = 1
    seed: int = 0
    init_mode: str = "empirical"        # or "prior_draw"
    audit_every: int = 0
    checkpoint_every: int = 0

    def __post_init__(self):
        if self.init_mode not in ("empirical", "prior_draw"):
            raise ValueError("init_mode must be 'empirical' or 'prior_draw'")
        if self.burn_in < 0 or self.burn_in >= self.n_iter:
            raise ValueError("burn_in must lie in [0, n_iter)")
        if self.thin < 1:
            raise ValueError("thin must be a positive integer")
        if (self.n_iter - self.burn_in) // self.thin < 1:
            raise ValueError("no draws would be kept; lower burn_in or thin")
        if self.n_chains < 1:
            raise ValueError("n_chains must be positive")
        for name in ("seed", "audit_every", "checkpoint_every"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")

    @property
    def n_draws(self) -> int:
        return (self.n_iter - self.burn_in) // self.thin


@dataclass
class Workspace:
    """Precomputed data quantities shared by all updates of one chain."""

    centred: np.ndarray         # (U, n, T) curves minus the mean curve
    proj: np.ndarray            # (U, n, K) plain dot products with eigenfunctions
    gram: np.ndarray            # (K, K) plain Gram matrix of eigenfunctions
    eigenfunctions: np.ndarray  # (T, K)
    group_codes: np.ndarray     # (U,)
    centred_sq: float = field(init=False)   # squared norm of centred

    def __post_init__(self):
        self.centred_sq = float(np.vdot(self.centred, self.centred))


def make_workspace(data: FunctionalDataset, basis: EigenBasis) -> Workspace:
    centred = data.values - basis.mean_curve
    phi = basis.eigenfunctions
    return Workspace(centred=centred, proj=centred @ phi, gram=phi.T @ phi,
                     eigenfunctions=phi, group_codes=data.group_codes.copy())


def data_free_workspace(ws: Workspace) -> Workspace:
    """ws without its data (an empty time axis, zero projections and Gram
    matrix), on which the score and noise conditionals are their priors."""
    u, n, k = ws.proj.shape
    return Workspace(centred=np.zeros((u, n, 0)), proj=np.zeros((u, n, k)),
                     gram=np.zeros((k, k)), eigenfunctions=np.zeros((0, k)),
                     group_codes=ws.group_codes)


def sufficient_ssr(scores: np.ndarray, ws: Workspace) -> float:
    """Residual sum of squares of the centred curves given the scores.

    Expands ||c - S phi^T||^2 as ||c||^2 - 2<S, P> + <S, S G> with the
    projections P and the Gram matrix G, in O(UnK^2) rather than O(UnTK);
    clamped at 0, since cancellation can push a near-exact fit below.
    """
    ssr = ws.centred_sq - 2.0 * np.vdot(scores, ws.proj) \
        + np.vdot(scores @ ws.gram, scores)
    return max(float(ssr), 0.0)


def _categorical_draw(rng: np.random.Generator, probs: np.ndarray) -> np.ndarray:
    """One categorical draw per cell of probs[0], over the leading axis of
    unnormalized probabilities.

    The running sums are accumulated one category plane at a time, in a
    C-ordered copy so that every plane is contiguous whatever the layout
    of probs (a transpose or a gather).  This adds in the same order as
    np.cumsum but is several times faster than cumsum along a leading
    axis.  A uniform below 1 times the total never
    rounds above the total, so the count of sums below it stays below the
    number of categories.
    """
    cum = np.array(probs, dtype=float, order="C")
    for c in range(1, cum.shape[0]):
        cum[c] += cum[c - 1]
    r = rng.random(cum.shape[1:]) * cum[-1]
    return (r > cum).sum(axis=0)


def _uniform_sd_draw(rng: np.random.Generator, bound: np.ndarray) -> np.ndarray:
    """Uniform cluster-sd draws on (0, bound), kept strictly inside."""
    return np.minimum(np.maximum(bound * rng.random(bound.shape), 1e-12 * bound),
                      (1.0 - 1e-12) * bound)


def _clamp_sticks(raw_sticks: np.ndarray) -> np.ndarray:
    """Beta draws of stick proportions kept strictly inside (0, 1)."""
    return np.minimum(np.maximum(raw_sticks, 1e-12), 1.0 - 1e-12)


def _in_bulk(shape, rate, lower):
    """Whether Gamma(shape, rate) truncated below at lower is drawn by
    plain rejection: a truncation point at most one sd above the mean,
    rate * lower <= shape + sqrt(shape), and a shape of at least 0.5, or
    a positive shape without truncation.  Below shape 0.5 the acceptance
    of a truncated draw falls towards 0 with the shape."""
    return ((shape >= 0.5) | ((shape > 0) & (lower <= 0))) \
        & (rate * lower <= shape + np.sqrt(np.maximum(shape, 0.0)))


def truncated_gamma_sample(rng: np.random.Generator, shape: float, rate: float,
                           lower: float) -> float:
    """Draw from Gamma(shape, rate) conditioned on the draw exceeding lower.

    In the bulk (see _in_bulk), gamma draws redrawn while at or below
    lower, as a one-entry truncated_gamma_batch.  Past the bulk, where
    lower also exceeds the mode, for a truncated shape below 0.5 and for a
    nonpositive shape (proper only on a truncated domain), rejection from
    a shifted exponential when shape > 1 and from a two-piece envelope
    otherwise.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    if _in_bulk(shape, rate, lower):
        return float(truncated_gamma_batch(rng, [shape], [rate], [lower])[0])
    if lower <= 0:
        raise ValueError("nonpositive shape requires a positive truncation point")
    return _truncated_gamma_tail(rng, float(shape), float(rate), float(lower))


def _truncated_gamma_tail(rng: np.random.Generator, shape: float, rate: float,
                          lower: float) -> float:
    """The rejection branches of truncated_gamma_sample for an entry past
    the bulk with lower > 0, unchecked.  One entry at a time: Python
    floats and math cost a fraction of numpy scalar arithmetic."""
    floor = math.nextafter(lower, math.inf)
    if shape > 1:
        # Shifted-exponential proposal with reduced rate so the tangent
        # bound on the increasing power part holds; past the bulk
        # rate * lower > shape + sqrt(shape), so the reduced rate is positive.
        prop_rate = rate - (shape - 1.0) / lower
        for _ in range(_MAX_ROUNDS):
            x = lower + rng.exponential(1.0 / prop_rate)
            log_accept = (shape - 1.0) * (math.log(x / lower) - (x - lower) / lower)
            if math.log(1.0 - rng.random()) < log_accept:
                return max(x, floor)
        raise SamplerError("tail rejection sampler failed to accept")
    # shape <= 1 (the power part is nonincreasing, e.g. a single-member
    # cluster with shape 0): two-piece envelope.  On (lower, c] bound the
    # exponential by its value at lower and invert the power-law CDF; on
    # (c, inf) bound the power part by its value at c and propose from a
    # shifted exponential.  With c = lower + 1/rate both pieces accept
    # with probability at least exp(-1)-ish, whatever rate * lower is.
    c = lower + 1.0 / rate
    log_span = math.log1p(1.0 / (rate * lower))          # log(c / lower)
    if shape == 0.0:
        log_mass_a = -rate * lower + math.log(log_span)
    else:
        log_mass_a = -rate * lower + shape * math.log(lower) \
            + math.log(math.expm1(shape * log_span) / shape)
    log_mass_b = (shape - 1.0) * math.log(c) - rate * c - math.log(rate)
    # mass_b / mass_a is at most about max(1, |shape|) / e, so exp cannot
    # overflow
    prob_a = 1.0 / (1.0 + math.exp(log_mass_b - log_mass_a))
    for _ in range(_MAX_ROUNDS):
        if rng.random() < prob_a:
            u = rng.random()
            if shape == 0.0:
                x = lower * math.exp(u * log_span)
            else:
                x = lower * (1.0 + u * math.expm1(shape * log_span)) ** (1.0 / shape)
            log_accept = -rate * (x - lower)
        else:
            x = c + rng.exponential(1.0 / rate)
            log_accept = (shape - 1.0) * math.log(x / c)
        if math.log(1.0 - rng.random()) < log_accept:
            return max(x, floor)
    raise SamplerError("tail rejection sampler failed to accept")


def truncated_gamma_batch(rng: np.random.Generator, shape, rate,
                          lower) -> np.ndarray:
    """truncated_gamma_sample over equal-length arrays of parameters.

    The bulk entries share array gamma draws; each round redraws only the
    entries still at or below their truncation point.  In the bulk the
    acceptance is at least about 0.12 for a truncated shape >= 0.5 (the
    smallest positive shape of a cluster with two or more members is
    0.5).  The other entries go in order straight to the scalar sampler's
    rejection branches.
    """
    shape, rate, lower = (np.asarray(a, dtype=float) for a in (shape, rate, lower))
    if (rate <= 0).any():
        raise ValueError("rate must be positive")
    bulk = _in_bulk(shape, rate, lower)
    tail = np.flatnonzero(~bulk)
    if (lower[tail] <= 0).any():
        raise ValueError("nonpositive shape requires a positive truncation point")
    a, b, low = shape[bulk], rate[bulk], lower[bulk]
    x = rng.standard_gamma(a) / b
    redo = np.flatnonzero(x <= low)
    for _ in range(_MAX_ROUNDS):
        if not redo.size:
            break
        x[redo] = rng.standard_gamma(a[redo]) / b[redo]
        redo = redo[x[redo] <= low[redo]]
    if redo.size:
        raise SamplerError("truncated gamma bulk sampler failed to accept")
    out = np.empty_like(shape)
    out[bulk] = x
    params = zip(shape[tail].tolist(), rate[tail].tolist(), lower[tail].tolist())
    for i, args in zip(tail.tolist(), params):
        out[i] = _truncated_gamma_tail(rng, *args)
    return out


# ---------------------------------------------------------------------------
# Initial states and prior simulation
# ---------------------------------------------------------------------------

def draw_state_from_prior(hp: HyperParams, n_subjects: int, n_channels: int,
                          group_codes: np.ndarray,
                          rng: np.random.Generator) -> ModelState:
    k = hp.n_components
    j = hp.max_subject_clusters
    group_codes = np.asarray(group_codes, dtype=int)
    loc, prec, bound = cluster_prior(hp, group_codes)
    cluster_mean = loc + prec ** -0.5 * rng.standard_normal(loc.shape)
    cluster_prec = _uniform_sd_draw(rng, bound) ** -2.0

    category_weights = np.vstack([rng.dirichlet(hp.category_conc) for _ in range(k)])
    raw_sticks = _clamp_sticks(rng.beta(1.0, hp.stick_conc[:, None, None], size=(k, 2, j)))
    stick_weights = sticks_to_weights(raw_sticks)

    subject_alloc = _categorical_draw(
        rng, np.broadcast_to(category_weights.T[:, None, :], (3, n_subjects, k))) + 1
    # every channel label, in category 3 or not, from its group's sticks
    probs = stick_weights[:, group_codes - GROUP_A, :].T[:, :, None, :]   # (J, U, 1, K)
    channel_alloc = _categorical_draw(
        rng, np.broadcast_to(probs, (j, n_subjects, n_channels, k))) + FIRST_SUBJECT_LABEL

    state = ModelState(
        scores=np.zeros((n_subjects, n_channels, k)),
        noise_prec=float(rng.gamma(hp.noise_prec_shape, 1.0 / hp.noise_prec_rate)),
        subject_alloc=subject_alloc,
        channel_alloc=channel_alloc,
        cluster_mean=cluster_mean, cluster_prec=cluster_prec,
        category_weights=category_weights,
        raw_sticks=raw_sticks, stick_weights=stick_weights,
        group_codes=group_codes.copy(),
    )
    means, precs = cluster_params_for_labels(state)
    state.scores = means + np.sqrt(1.0 / precs) * rng.standard_normal(means.shape)
    return state


def initial_state_empirical(basis: EigenBasis, hp: HyperParams,
                            ws: Workspace) -> ModelState:
    """Scores at their empirical values, everyone in the common cluster,
    cluster parameters at prior means; no subject is in category 3, so
    every channel label is the first subject label."""
    u, n, k = basis.scores.shape
    j = hp.max_subject_clusters

    raw_sticks = np.broadcast_to(
        (1.0 / (1.0 + hp.stick_conc))[:, None, None], (k, 2, j)).copy()

    resid_var = float(np.var(ws.centred - fitted_curves(basis.scores,
                                                         ws.eigenfunctions)))
    loc, _, bound = cluster_prior(hp, ws.group_codes)
    return ModelState(
        scores=basis.scores.copy(),
        noise_prec=1.0 / max(resid_var, 1e-12),
        subject_alloc=np.full((u, k), CAT_COMMON, dtype=int),
        channel_alloc=np.full((u, n, k), FIRST_SUBJECT_LABEL),
        cluster_mean=loc,
        cluster_prec=(bound / 2.0) ** -2.0,
        category_weights=np.broadcast_to(hp.category_conc / hp.category_conc.sum(),
                                         (k, 3)).copy(),
        raw_sticks=raw_sticks,
        stick_weights=sticks_to_weights(raw_sticks),
        group_codes=ws.group_codes.copy(),
    )


def draw_observations(state: ModelState, eigenfunctions: np.ndarray,
                      rng: np.random.Generator) -> np.ndarray:
    """Centred curves simulated from the current state (for calibration tests)."""
    fitted = fitted_curves(state.scores, eigenfunctions)
    return fitted + rng.normal(0.0, state.noise_prec ** -0.5, size=fitted.shape)


# ---------------------------------------------------------------------------
# Conditional updates
# ---------------------------------------------------------------------------

def score_update_params(state: ModelState, ws: Workspace, dim: int,
                        cluster_params=None):
    """Posterior mean and variance of every score in one dimension,
    holding the other dimensions at their current values; cluster_params
    is the cluster_params_for_labels gather, taken here when not given."""
    means_z, precs_z = cluster_params if cluster_params is not None \
        else cluster_params_for_labels(state)
    mu, s = means_z[:, :, dim], precs_z[:, :, dim]
    dot_r = ws.proj[:, :, dim] - state.scores @ ws.gram[:, dim] \
        + state.scores[:, :, dim] * ws.gram[dim, dim]
    var = 1.0 / (state.noise_prec * ws.gram[dim, dim] + s)
    mean = var * (state.noise_prec * dot_r + s * mu)
    return mean, var


def update_scores(state: ModelState, ws: Workspace, rng: np.random.Generator,
                  index: np.ndarray | None = None) -> None:
    """Draw every score, one dimension at a time, given the cluster_index
    of the labels (taken here when not given)."""
    u, n, k = state.scores.shape
    # labels and cluster parameters do not change within the block
    params = cluster_params_for_labels(state, index)
    for dim in range(k):
        mean, var = score_update_params(state, ws, dim, params)
        state.scores[:, :, dim] = mean + np.sqrt(var) * rng.standard_normal((u, n))


def noise_prec_params(state: ModelState, ws: Workspace,
                      hp: HyperParams, ssr: float | None = None):
    """Gamma(shape, rate) parameters of the noise-precision conditional;
    ssr defaults to the sufficient-statistic residual sum of the scores."""
    if ssr is None:
        ssr = sufficient_ssr(state.scores, ws)
    shape = hp.noise_prec_shape + 0.5 * ws.centred.size
    rate = hp.noise_prec_rate + 0.5 * ssr
    return shape, rate


def update_noise_prec(state: ModelState, ws: Workspace, hp: HyperParams,
                      rng: np.random.Generator, ssr: float | None = None) -> None:
    shape, rate = noise_prec_params(state, ws, hp, ssr)
    state.noise_prec = float(rng.gamma(shape, 1.0 / rate))


def _segment_sum(index: np.ndarray, n_dims: int, n_clusters: int,
                 values: np.ndarray | None = None) -> np.ndarray:
    """Per-cluster sums of values (member counts without values), (K, C)."""
    weights = None if values is None else values.ravel()
    return np.bincount(index.ravel(), weights=weights,
                       minlength=n_dims * n_clusters).reshape(n_dims, n_clusters)


def cluster_counts(state: ModelState, index: np.ndarray) -> np.ndarray:
    """Member count of every cluster, (K, 3 + U*J), given the cluster_index
    of the scores."""
    return _segment_sum(index, *state.cluster_mean.shape)


def cluster_mean_params(state: ModelState, prior: np.ndarray, index: np.ndarray,
                        counts: np.ndarray):
    """Normal conditional of every cluster mean given the current
    precisions, the cluster_prior grids, the cluster_index of the scores
    and the cluster_counts: (location, precision), each (K, 3 + U*J).  An
    empty cluster gets its prior."""
    sums = _segment_sum(index, *counts.shape, state.scores)
    mean0, prec0, _ = prior
    post_prec = prec0 + counts * state.cluster_prec
    return (prec0 * mean0 + state.cluster_prec * sums) / post_prec, post_prec


def cluster_prec_params(state: ModelState, index: np.ndarray, counts: np.ndarray,
                        means: np.ndarray):
    """Conditional of every cluster precision given the cluster means (K,
    3 + U*J): Gamma(shape, rate) truncated below at the cluster_prior
    bound's sd_bound^-2, returned as (shape, rate).

    The uniform sd prior contributes the -3/2 power and the bound, so the
    shape is m/2 - 1/2 and the rate SS/2 for m members with sum of squares
    SS about the mean.  A rate of (nearly) zero, from an empty cluster or
    members all at the mean, marks a precision redrawn from the prior.
    """
    dev = state.scores - means.ravel()[index]
    ss = _segment_sum(index, *counts.shape, dev * dev)
    return 0.5 * counts - 0.5, 0.5 * ss


def update_cluster_params(state: ModelState, hp: HyperParams,
                          rng: np.random.Generator,
                          index: np.ndarray | None = None,
                          consts: ChainConstants | None = None) -> None:
    """Draw every cluster's mean, then its precision, given the scores,
    the cluster_index of the labels and the chain_constants (each taken
    here when not given); empty clusters are redrawn from their prior."""
    if consts is None:
        consts = chain_constants(hp, state.group_codes)
    if index is None:
        index = cluster_index(state, consts.slots)
    counts = cluster_counts(state, index)
    loc, post_prec = cluster_mean_params(state, consts.prior, index, counts)
    means = loc + np.sqrt(1.0 / post_prec) * rng.standard_normal(loc.shape)
    shape, rate = cluster_prec_params(state, index, counts, means)
    precs = np.empty_like(means)
    fit = rate > 0.5 * _TINY_SS
    empty = ~fit
    precs[empty] = _uniform_sd_draw(rng, consts.prior[2][empty]) ** -2.0
    precs[fit] = truncated_gamma_batch(rng, shape[fit], rate[fit], consts.prec_floor[fit])
    state.cluster_mean, state.cluster_prec = means, precs


def alloc_log_weights(state: ModelState):
    """Log weights of the three categories of every subject in every
    dimension, (K, U, 3), the channel labels marginalized in category 3,
    and the unnormalized channel-label posterior under category 3, laid
    out label-first as (J, K, U, n) so that the reductions over labels
    run across whole (K, U, n) blocks.

    The scores are transposed once to (K, U, n).  Categories 1 and 2 sum
    over channels in closed form, n (log p - log 2pi) / 2 - (p / 2) *
    sum (x - m)^2, taken for the common and both group clusters and then
    picked by group.  Category 3 takes, per (label, dimension, subject),
    the log stick weight plus (log p - log 2pi) / 2 and subtracts
    p/2 (x - m)^2 from it in place.
    """
    u, n, k = state.scores.shape
    gidx = state.group_codes - GROUP_A
    x = np.ascontiguousarray(state.scores.transpose(2, 0, 1))
    mean, prec = state.cluster_mean, state.cluster_prec
    log_omega = np.log(np.maximum(state.category_weights, 1e-300))
    dev = x[:, None] - mean[:, :3, None, None]                   # (K, 3, U, n)
    dev *= dev
    p = prec[:, :3, None]
    shared = 0.5 * n * (np.log(p) - LOG_2PI) - 0.5 * p * dev.sum(axis=3)
    weights = np.empty((k, u, 3))
    weights[:, :, 0] = log_omega[:, 0, None] + shared[:, 0]
    weights[:, :, 1] = log_omega[:, 1, None] + np.where(gidx == 0, shared[:, 1], shared[:, 2])
    m = mean[:, 3:].reshape(k, u, -1).transpose(2, 0, 1)         # (J, K, U)
    p = prec[:, 3:].reshape(k, u, -1).transpose(2, 0, 1)
    log_sticks = np.log(np.maximum(state.stick_weights, 1e-300))[:, gidx].transpose(2, 0, 1)
    # m repeated along the channels, so that x broadcasts over whole planes
    chan_post = np.repeat(m, n).reshape(m.shape + (n,))
    chan_post -= x
    chan_post *= chan_post
    chan_post *= (0.5 * p)[..., None]
    np.subtract((log_sticks + 0.5 * (np.log(p) - LOG_2PI))[..., None], chan_post,
                out=chan_post)
    top = chan_post.max(axis=0)
    chan_post -= top
    np.exp(chan_post, out=chan_post)
    weights[:, :, 2] = log_omega[:, 2, None] + (top + np.log(chan_post.sum(axis=0))).sum(axis=2)
    return weights, chan_post


def update_subject_alloc(state: ModelState, rng: np.random.Generator) -> None:
    """Draw every subject's category in every dimension in one call, then
    in one more the channel labels of every (dimension, subject) in
    category 3 from their posterior.  All weights are computed at the
    start of the block, and given them the dimensions are independent, so
    drawing them together keeps each conditional.  No later step reads
    the other labels, so they are left as they are, which keeps the
    stationary law (van Dyk & Park 2008, partially collapsed Gibbs)."""
    weights, chan_post = alloc_log_weights(state)
    top = weights.max(axis=2, keepdims=True)
    finite = np.isfinite(top).all(axis=(1, 2))
    if not finite.all():
        raise SamplerError(
            f"allocation weights underflowed in dimension {finite.argmin() + 1}")
    cat = _categorical_draw(rng, np.exp(weights - top).transpose(2, 0, 1)) + 1   # (K, U)
    state.subject_alloc[:] = cat.T
    dims, subjects = np.nonzero(cat == CAT_SUBJECT)
    if dims.size:           # a draw for no row would take no variates
        state.channel_alloc[subjects, :, dims] = \
            _categorical_draw(rng, chan_post[:, dims, subjects]) + FIRST_SUBJECT_LABEL


def _category_counts(subject_alloc: np.ndarray) -> np.ndarray:
    """Number of subjects in each category per dimension, (K, 3)."""
    return (subject_alloc[:, :, None] == _CATEGORIES).sum(axis=0)


def category_weight_params(state: ModelState, hp: HyperParams) -> np.ndarray:
    """Dirichlet concentrations of the category-weight conditional, (K, 3)."""
    return hp.category_conc + _category_counts(state.subject_alloc)


def update_category_weights(state: ModelState, hp: HyperParams,
                            rng: np.random.Generator) -> None:
    """Draw each dimension's category weights from its Dirichlet
    conditional, as normalized gamma variates.  This is what
    rng.dirichlet does row by row when a row's largest concentration is
    at least 0.1, and here it always is: a row's counts sum to U >= 1, so
    its largest concentration is at least 1."""
    draws = rng.standard_gamma(category_weight_params(state, hp))
    draws *= 1.0 / draws.sum(axis=1, keepdims=True)
    state.category_weights = np.maximum(draws, 1e-300)


def stick_counts(state: ModelState) -> np.ndarray:
    """Channel-label counts n[k, group, j] among subject-specific scores."""
    k, groups, j = state.raw_sticks.shape
    subj, dim = np.nonzero(state.subject_alloc == CAT_SUBJECT)
    flat = ((groups * dim + state.group_codes[subj] - GROUP_A) * j)[:, None] \
        + state.channel_alloc[subj, :, dim] - FIRST_SUBJECT_LABEL    # (subject dims, n)
    return np.bincount(flat.ravel(), minlength=k * groups * j).reshape(k, groups, j)


def stick_params(state: ModelState, hp: HyperParams):
    """Beta(a, b) parameters of every stick conditional, each (K, 2, J)."""
    counts = stick_counts(state)
    total = counts.sum(axis=2, keepdims=True)
    tail = total - np.cumsum(counts, axis=2)
    a = 1.0 + counts
    b = hp.stick_conc[:, None, None] + tail
    return a, b


def update_sticks(state: ModelState, hp: HyperParams, rng: np.random.Generator) -> None:
    a, b = stick_params(state, hp)
    state.raw_sticks = _clamp_sticks(rng.beta(a, b))
    state.stick_weights = sticks_to_weights(state.raw_sticks)


def gibbs_scan(state: ModelState, ws: Workspace, hp: HyperParams,
               rng: np.random.Generator, likelihood_off: bool = False,
               consts: ChainConstants | None = None) -> float:
    """One systematic scan over all six blocks, on data_free_workspace(ws)
    with likelihood_off, so that the scan samples the prior.  consts are
    the chain_constants of (hp, state.group_codes), built here when not
    given; run_chain builds them once per chain.

    Returns the residual sum of squares the noise update used (0.0 with
    the likelihood off), for the audit.
    """
    if likelihood_off:
        ws = data_free_workspace(ws)
    if consts is None:
        consts = chain_constants(hp, state.group_codes)
    index = cluster_index(state, consts.slots)   # the labels hold until the allocation block
    update_scores(state, ws, rng, index)
    ssr = sufficient_ssr(state.scores, ws)
    update_noise_prec(state, ws, hp, rng, ssr=ssr)
    update_cluster_params(state, hp, rng, index, consts)
    update_subject_alloc(state, rng)
    update_category_weights(state, hp, rng)
    update_sticks(state, hp, rng)
    return ssr


# ---------------------------------------------------------------------------
# Chains and archives
# ---------------------------------------------------------------------------

def scalar_names(n_components: int) -> list[str]:
    names = ["noise_prec"]
    for k in range(1, n_components + 1):
        names += [f"weight_common[{k}]", f"weight_group[{k}]", f"weight_subject[{k}]",
                  f"common_mean[{k}]", f"common_prec[{k}]",
                  f"group_mean[{k},2]", f"group_prec[{k},2]",
                  f"group_mean[{k},3]", f"group_prec[{k},3]",
                  f"count_common[{k}]", f"count_group[{k}]", f"count_subject[{k}]"]
    return names


def _scalar_row(state: ModelState) -> list[float]:
    """The scalar_names values: per dimension the category weights, the
    mean and precision of grid slots 0-2 (common, then the two groups)
    interleaved, and the category counts."""
    shared = np.stack([state.cluster_mean[:, :3], state.cluster_prec[:, :3]], axis=2)
    per_dim = np.concatenate([state.category_weights, shared.reshape(state.n_components, 6),
                              _category_counts(state.subject_alloc)], axis=1)
    return [state.noise_prec] + per_dim.ravel().tolist()


@dataclass
class ChainArchive:
    scalar_names: list
    scalars: np.ndarray | None               # (R, len(scalar_names))
    subject_alloc_draws: np.ndarray | None   # (R, U, K) int8
    channel_alloc_draws: np.ndarray | None   # (R, U, n, K) int16, -1 unless category 3
    group_codes: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def n_draws(self) -> int:
        """R, from the first of the arrays present (load_archives leaves
        those of unread chain files None)."""
        arrays = (self.scalars, self.subject_alloc_draws, self.channel_alloc_draws)
        return next(a for a in arrays if a is not None).shape[0]


def _audit(state: ModelState, ws: Workspace, hp: HyperParams, ssr: float,
           iteration: int) -> None:
    """Validate the state, check the SSR the scan used (from sufficient
    statistics) against the direct residual sum, and require a finite
    log joint of scores and data."""
    validate_state(state, hp)
    direct = residual_ssr(state.scores, ws.centred, ws.eigenfunctions)
    if abs(direct - ssr) > AUDIT_TOL * (ws.centred_sq + direct):
        raise SamplerError(
            f"iteration {iteration}: scan residual sum of squares {ssr:.12g} "
            f"!= direct {direct:.12g}")
    log_joint = scores_logprior(state) \
        + noise_loglik(direct, ws.centred.size, state.noise_prec)
    if not np.isfinite(log_joint):
        raise SamplerError(f"iteration {iteration}: log joint is {log_joint}")


def _check_finite(state: ModelState, iteration: int) -> None:
    """Raise, naming the first non-finite array, unless every real
    quantity of the state is finite; one check covers all of them."""
    checks = [("scores", state.scores), ("noise_prec", np.float64(state.noise_prec)),
              ("cluster_mean", state.cluster_mean), ("cluster_prec", state.cluster_prec),
              ("weights", state.category_weights), ("sticks", state.stick_weights)]
    if np.isfinite(np.concatenate([arr.ravel() for _, arr in checks])).all():
        return
    for name, arr in checks:
        if not np.isfinite(arr).all():
            raise SamplerError(f"non-finite {name} after iteration {iteration}")


def run_chain(data: FunctionalDataset, basis: EigenBasis, hp: HyperParams,
              cfg: SamplerConfig, chain_index: int = 0,
              checkpoint_dir=None, resume_from=None) -> ChainArchive:
    """Run one chain and return its archive.

    The chain seed derives from (cfg.seed, chain_index) so multi-chain
    runs are reproducible chain by chain.
    """
    ws = make_workspace(data, basis)
    seed_seq = np.random.SeedSequence(cfg.seed).spawn(cfg.n_chains)[chain_index]
    rng = np.random.default_rng(seed_seq)
    start_iter = 0
    scalars, alloc_draws, chan_draws = [], [], []
    if resume_from is not None:
        state, rng, start_iter, kept = _load_checkpoint(resume_from)
        scalars, alloc_draws, chan_draws = (list(draws) for draws in kept)
    elif cfg.init_mode == "prior_draw":
        state = draw_state_from_prior(hp, data.n_subjects, data.n_channels,
                                      data.group_codes, rng)
    else:
        state = initial_state_empirical(basis, hp, ws)

    u, n, k = state.scores.shape
    names = scalar_names(k)
    consts = chain_constants(hp, data.group_codes)

    def archive(meta=None) -> ChainArchive:
        return ChainArchive(
            scalar_names=names,
            scalars=np.array(scalars, dtype=float).reshape(-1, len(names)),
            subject_alloc_draws=np.array(alloc_draws, dtype=np.int8).reshape(-1, u, k),
            channel_alloc_draws=np.array(chan_draws, dtype=np.int16).reshape(-1, u, n, k),
            group_codes=data.group_codes.copy(), meta=meta or {})

    for it in range(start_iter + 1, cfg.n_iter + 1):
        ssr = gibbs_scan(state, ws, hp, rng, consts=consts)
        _check_finite(state, it)
        if cfg.audit_every and it % cfg.audit_every == 0:
            _audit(state, ws, hp, ssr, it)
        if it > cfg.burn_in and (it - cfg.burn_in) % cfg.thin == 0:
            scalars.append(_scalar_row(state))
            alloc_draws.append(state.subject_alloc.astype(np.int8))
            chan_draws.append(np.where(
                (state.subject_alloc == CAT_SUBJECT)[:, None, :],
                state.channel_alloc, -1).astype(np.int16))
        if checkpoint_dir is not None and cfg.checkpoint_every \
                and it % cfg.checkpoint_every == 0 and it < cfg.n_iter:
            _save_checkpoint(checkpoint_dir, state, rng, it, archive())

    return archive({"chain_index": chain_index, "seed": cfg.seed,
                    "n_iter": cfg.n_iter, "burn_in": cfg.burn_in, "thin": cfg.thin,
                    "init_mode": cfg.init_mode,
                    "n_subjects": int(u), "n_channels": int(n), "n_components": int(k)})


def worker_cap() -> int | None:
    """The MLPP_THREADS cap on chain worker processes, None when unset."""
    cap = os.environ.get("MLPP_THREADS")
    if cap is None:
        return None
    digits = cap.strip()
    if not (digits.isascii() and digits.isdigit()) or int(digits) < 1:
        raise ValueError(f"MLPP_THREADS must be a positive integer, got {cap!r}")
    return int(cap)


def _chain_job(args):
    data, basis, hp, cfg, index = args
    return run_chain(data, basis, hp, cfg, chain_index=index)


def run_chains(data: FunctionalDataset, basis: EigenBasis, hp: HyperParams,
               cfg: SamplerConfig) -> list:
    """Run all configured chains (optionally in parallel worker processes,
    capped by the MLPP_THREADS environment variable)."""
    cap = worker_cap()
    workers = 1 if cap is None else min(cfg.n_chains, cap)
    jobs = [(data, basis, hp, cfg, i) for i in range(cfg.n_chains)]
    if workers > 1 and cfg.n_chains > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_chain_job, jobs))
    return [_chain_job(job) for job in jobs]


# ---------------------------------------------------------------------------
# Checkpoints: state snapshot, RNG state, and the draws kept so far as
# chain files
# ---------------------------------------------------------------------------

def _save_checkpoint(directory, state: ModelState, rng: np.random.Generator,
                     iteration: int, kept: ChainArchive) -> None:
    directory = Path(directory)
    save_state(state, directory / "state")
    _write_chain(kept, directory)
    doc = {"iteration": iteration, "rng_state": rng.bit_generator.state}
    (directory / "checkpoint.json").write_text(json.dumps(doc) + "\n")


def _load_checkpoint(directory):
    directory = Path(directory)
    doc = json.loads((directory / "checkpoint.json").read_text())
    state = load_state(directory / "state")
    rng = np.random.default_rng()
    rng.bit_generator.state = doc["rng_state"]
    shape = state.scores.shape
    scalars = _read_scalars(directory, scalar_names(state.n_components))
    kept = (scalars, _read_categories(directory, len(scalars), shape),
            _read_labels(directory, len(scalars), shape))
    return state, rng, doc["iteration"], kept


# ---------------------------------------------------------------------------
# Archive files (draws, subjects, channels and dimensions counted from 1)
# ---------------------------------------------------------------------------

CHAIN_FILES = ("draws_scalar.csv", "labels_g.csv", "labels_eta.csv")
_LABELS_G_HEADER = ["draw", "subject", "dim", "category"]
_LABELS_ETA_HEADER = ["draw", "subject", "channel", "dim", "label"]


def _write_chain(archive: ChainArchive, chain_dir: Path) -> None:
    """draws_scalar.csv, labels_g.csv and labels_eta.csv (category-3
    channel labels only) of one chain."""
    write_table(chain_dir / "draws_scalar.csv", ["draw"] + archive.scalar_names,
                np.arange(1, archive.n_draws + 1), archive.scalars)
    write_table(chain_dir / "labels_g.csv", _LABELS_G_HEADER,
                grid_index(archive.subject_alloc_draws.shape, 1),
                archive.subject_alloc_draws.ravel())
    cells = np.argwhere(archive.channel_alloc_draws >= 0)
    write_table(chain_dir / "labels_eta.csv", _LABELS_ETA_HEADER, cells + 1,
                archive.channel_alloc_draws[tuple(cells.T)])


def _read_scalars(chain_dir: Path, names: list) -> np.ndarray:
    """draws_scalar.csv: (draws, len(names)), the draw count its row count."""
    path = chain_dir / "draws_scalar.csv"
    table = read_table(path, ["draw"] + names)
    return scatter(path, table, (len(table),), 1, complete=True)


def _read_categories(chain_dir: Path, draws: int, shape) -> np.ndarray:
    """labels_g.csv: the (draws, U, K) subject categories, every cell
    named; shape is (U, n, K)."""
    u, _, k = shape
    path = chain_dir / "labels_g.csv"
    return scatter(path, read_table(path, _LABELS_G_HEADER, np.int64), (draws, u, k), 1,
                   dtype=np.int8, complete=True)[..., 0]


def _read_labels(chain_dir: Path, draws: int, shape) -> np.ndarray:
    """labels_eta.csv: the (draws, U, n, K) channel labels, -1 outside
    category 3; shape is (U, n, K)."""
    path = chain_dir / "labels_eta.csv"
    return scatter(path, read_table(path, _LABELS_ETA_HEADER, np.int64),
                   (draws,) + tuple(shape), 1, fill=-1, dtype=np.int16)[..., 0]


def save_archives(archives: list, run_dir, extra_meta: dict | None = None) -> None:
    """One directory per run: meta.json plus per-chain scalar and label CSVs.

    meta.json marks the run complete: an old one is removed before any
    chain file is written, and the new one is written last, through a
    temporary file renamed into place."""
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    meta_path = run_dir / "meta.json"
    meta_path.unlink(missing_ok=True)
    meta = {"n_chains": len(archives), "chains": [a.meta for a in archives],
            "scalar_names": archives[0].scalar_names,
            "group_codes": archives[0].group_codes.tolist()}
    if extra_meta:
        meta.update(extra_meta)
    for idx, archive in enumerate(archives):
        chain_dir = run_dir / f"chain_{idx:02d}"
        chain_dir.mkdir(exist_ok=True)
        _write_chain(archive, chain_dir)
    tmp = run_dir / "meta.json.tmp"
    tmp.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, meta_path)


def load_archives(run_dir, files=CHAIN_FILES) -> list:
    """The chains of a run directory, reading and checking the chain files
    named in files (each command reads only those it uses); the arrays of
    the others are None.  The draw count is the row count of
    draws_scalar.csv, or without it the count meta.json's settings keep."""
    run_dir = Path(run_dir)
    meta_path = run_dir / "meta.json"
    try:
        meta = json.loads(meta_path.read_text())
    except ValueError as err:
        raise ValueError(f"{meta_path}: {err}") from None
    archives = []
    for idx in range(meta["n_chains"]):
        chain_meta = meta["chains"][idx]
        chain_dir = run_dir / f"chain_{idx:02d}"
        shape = (chain_meta["n_subjects"], chain_meta["n_channels"],
                 chain_meta["n_components"])
        scalars = alloc = chan = None
        if "draws_scalar.csv" in files:
            scalars = _read_scalars(chain_dir, meta["scalar_names"])
            draws = len(scalars)
        else:
            try:
                draws = SamplerConfig(n_iter=chain_meta["n_iter"], thin=chain_meta["thin"],
                                      burn_in=chain_meta["burn_in"]).n_draws
            except (KeyError, TypeError, ValueError) as err:
                raise ValueError(f"{meta_path}: chain {idx} has no valid n_iter, burn_in "
                                 f"and thin ({err})") from None
        if "labels_g.csv" in files:
            alloc = _read_categories(chain_dir, draws, shape)
        if "labels_eta.csv" in files:
            chan = _read_labels(chain_dir, draws, shape)
        archives.append(ChainArchive(
            scalar_names=meta["scalar_names"], scalars=scalars,
            subject_alloc_draws=alloc, channel_alloc_draws=chan,
            group_codes=np.array(meta["group_codes"], dtype=int),
            meta=chain_meta))
    return archives
