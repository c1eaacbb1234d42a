"""Shared helpers for the test suite.

The reference implementations here are deliberately naive (explicit
loops over items and pairs) so the vectorized library code is checked
against independent arithmetic rather than against itself.
"""
import csv
import itertools

import numpy as np

from mlpp.hyperparams import HyperParams
from mlpp.partitions import variation_of_information
from mlpp.sampler import (_MAX_ROUNDS, Workspace, _in_bulk, draw_state_from_prior,
                          truncated_gamma_sample)

BELL = {0: 1, 1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}


def all_partitions(n):
    """Every set partition of n items as a label vector (restricted growth)."""
    out = []

    def grow(prefix, used):
        if len(prefix) == n:
            out.append(np.array(prefix, dtype=int))
            return
        for lab in range(used + 1):
            grow(prefix + [lab], max(used, lab + 1))

    grow([], 0)
    return out


def brute_force_ari(a, b):
    """Adjusted Rand index straight from the pair-counting definition."""
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    pairs = list(itertools.combinations(range(a.size), 2))
    in_a = sum(1 for i, j in pairs if a[i] == a[j])
    in_b = sum(1 for i, j in pairs if b[i] == b[j])
    both = sum(1 for i, j in pairs if a[i] == a[j] and b[i] == b[j])
    total = len(pairs)
    expected = in_a * in_b / total if total else 0.0
    max_index = 0.5 * (in_a + in_b)
    if max_index == expected:
        return 1.0
    return (both - expected) / (max_index - expected)


def brute_force_vi(a, b):
    """Variation of information (bits) from the block-overlap definition."""
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    n = a.size
    blocks_a = [np.nonzero(a == lab)[0] for lab in np.unique(a)]
    blocks_b = [np.nonzero(b == lab)[0] for lab in np.unique(b)]
    h_a = -sum(blk.size / n * np.log2(blk.size / n) for blk in blocks_a)
    h_b = -sum(blk.size / n * np.log2(blk.size / n) for blk in blocks_b)
    mutual = 0.0
    for blk_a in blocks_a:
        for blk_b in blocks_b:
            inter = np.intersect1d(blk_a, blk_b).size
            if inter:
                mutual += inter / n * np.log2(inter * n / (blk_a.size * blk_b.size))
    return h_a + h_b - 2.0 * mutual


def naive_contingency(a, b):
    """Contingency table of two labelings with one np.unique per side and
    an unbuffered add: rows follow the sorted labels of a, columns those
    of b."""
    _, ai = np.unique(np.asarray(a).ravel(), return_inverse=True)
    _, bi = np.unique(np.asarray(b).ravel(), return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(table, (ai, bi), 1)
    return table


def naive_similarity_matrix(draws):
    """Posterior co-clustering frequencies by a float sum over every draw."""
    draws = np.asarray(draws)
    r, n = draws.shape
    sim = np.zeros((n, n))
    for row in draws:
        sim += row[:, None] == row[None, :]
    return sim / r


def _naive_block_sizes(labels):
    _, inv, counts = np.unique(labels, return_inverse=True, return_counts=True)
    return counts[inv]


def naive_vi_point_estimate(draws):
    """VI-bound point estimate with the per-draw mean log block size and a
    candidate loop in first-occurrence order; (bound, blocks) ties keep
    the earlier candidate."""
    draws = np.asarray(draws)
    r, n = draws.shape
    sim = naive_similarity_matrix(draws)
    mean_log_sizes = np.mean([np.sum(np.log2(_naive_block_sizes(row)))
                              for row in draws]) / n
    candidates, first_idx = np.unique(draws, axis=0, return_index=True)
    candidates = candidates[np.argsort(first_idx)]
    best = None
    for cand in candidates:
        sizes = _naive_block_sizes(cand)
        same = cand[:, None] == cand[None, :]
        expected_overlap = np.sum(sim * same, axis=1)
        bound = (np.sum(np.log2(sizes)) / n + mean_log_sizes
                 - 2.0 * np.sum(np.log2(expected_overlap)) / n)
        key = (bound, np.unique(cand).size)
        if best is None or key < best[0]:
            best = (key, cand)
    key, labels = best
    return labels.copy(), float(key[0])


def naive_partition_key(labels):
    """The partition a labelling names: each label replaced by the order
    in which it first appears, so two labellings of one partition share
    a key."""
    names = {}
    return tuple(names.setdefault(int(v), len(names)) for v in labels)


def naive_credible_ball(draws, centre, level=0.95):
    """Credible ball from one VI distance per draw, taken from its
    partition's first sampled labelling, a frequency table filled draw by
    draw, and bound ties within the 1e-12 inclusion tolerance."""
    draws = np.asarray(draws)
    r = draws.shape[0]
    keys = [naive_partition_key(row) for row in draws]
    rep = {}
    for key, row in zip(keys, draws):
        rep.setdefault(key, row)
    rep_dist = {key: variation_of_information(centre, row) for key, row in rep.items()}
    dist = np.array([rep_dist[key] for key in keys])
    radius = float(np.sort(dist)[int(np.ceil(level * r)) - 1])
    inside = dist <= radius + 1e-12
    freq = {}
    for key in itertools.compress(keys, inside):
        freq[key] = freq.get(key, 0) + 1

    def summaries(keys):
        return [{"labels": [int(v) for v in rep[key]],
                 "n_blocks": int(np.unique(rep[key]).size),
                 "distance": rep_dist[key],
                 "frequency": freq[key] / r} for key in keys]

    keys = list(freq)
    blocks = {key: np.unique(rep[key]).size for key in keys}
    upper = [k for k in keys if blocks[k] == min(blocks.values())]
    lower = [k for k in keys if blocks[k] == max(blocks.values())]
    upper_far = max(rep_dist[k] for k in upper)
    lower_far = max(rep_dist[k] for k in lower)
    max_dist = max(rep_dist[k] for k in keys)
    return {
        "level": level,
        "radius": radius,
        "coverage": float(inside.mean()),
        "vertical_upper": summaries([k for k in upper if rep_dist[k] >= upper_far - 1e-12]),
        "vertical_lower": summaries([k for k in lower if rep_dist[k] >= lower_far - 1e-12]),
        "horizontal": summaries([k for k in keys if rep_dist[k] >= max_dist - 1e-12]),
    }


def make_hyperparams(rng, k=2, j=6):
    """Random but valid prior constants for small synthetic states."""
    return HyperParams(
        common_mean_prec=rng.uniform(0.5, 2.0, k),
        common_sd_bound=rng.uniform(1.5, 3.0, k),
        group_mean_loc=rng.normal(0.0, 1.0, (k, 2)),
        group_mean_prec=rng.uniform(0.5, 2.0, (k, 2)),
        group_sd_bound=rng.uniform(1.5, 3.0, (k, 2)),
        subject_mean_loc=rng.normal(0.0, 1.0, (k, 2)),
        subject_mean_prec=rng.uniform(0.5, 2.0, (k, 2)),
        subject_sd_bound=rng.uniform(1.5, 3.0, (k, 2)),
        noise_prec_shape=2.0,
        noise_prec_rate=2.0,
        max_subject_clusters=j,
    )


def random_state_and_workspace(seed, u=5, n=4, k=2, t=12, j=6):
    """A valid random model state plus a synthetic data workspace.

    The workspace arrays are plain random numbers: the conditional-update
    formulas must hold for any inputs, so nothing here needs to look like
    real data.
    """
    rng = np.random.default_rng(seed)
    hp = make_hyperparams(rng, k, j)
    group_codes = np.where(np.arange(u) < u // 2, 2, 3)
    state = draw_state_from_prior(hp, u, n, group_codes, rng)
    state.scores = rng.normal(0.0, 1.5, (u, n, k))
    phi = rng.normal(0.0, 1.0, (t, k))
    centred = rng.normal(0.0, 1.0, (u, n, t))
    ws = Workspace(centred=centred, proj=centred @ phi, gram=phi.T @ phi,
                   eigenfunctions=phi, group_codes=group_codes.copy())
    return state, hp, ws, rng


def naive_cluster_conditionals(state, hp, means):
    """Conditional parameters of every cluster by an explicit loop over
    clusters and their member scores.

    Keys are ("common", dim), ("group", dim, col) and ("subject", subj,
    dim, lab) with col and lab counted from 0; means maps the same keys to
    the cluster means the precision conditional is taken about.  Values
    are (members, mean location, mean precision, precision shape,
    precision rate, sd bound): the mean conditional given the current
    precisions, and the Gamma(m/2 - 1/2, SS/2) precision conditional
    truncated below at sd_bound^-2.
    """
    u, n, k = state.scores.shape
    j = state.max_subject_clusters
    clusters = {}
    for dim in range(k):
        clusters[("common", dim)] = (0.0, hp.common_mean_prec[dim],
                                     hp.common_sd_bound[dim], state.common_prec[dim])
        for col in range(2):
            clusters[("group", dim, col)] = (
                hp.group_mean_loc[dim, col], hp.group_mean_prec[dim, col],
                hp.group_sd_bound[dim, col], state.group_prec[dim, col])
        for subj in range(u):
            col = state.group_codes[subj] - 2
            for lab in range(j):
                clusters[("subject", subj, dim, lab)] = (
                    hp.subject_mean_loc[dim, col], hp.subject_mean_prec[dim, col],
                    hp.subject_sd_bound[dim, col], state.subject_prec[subj, dim, lab])
    members = {key: [] for key in clusters}
    for subj in range(u):
        for chan in range(n):
            for dim in range(k):
                cat = state.subject_alloc[subj, dim]
                if cat == 1:
                    key = ("common", dim)
                elif cat == 2:
                    key = ("group", dim, state.group_codes[subj] - 2)
                else:
                    key = ("subject", subj, dim, state.channel_alloc[subj, chan, dim] - 4)
                members[key].append(state.scores[subj, chan, dim])
    out = {}
    for key, (mean0, prec0, bound, cur_prec) in clusters.items():
        xs = members[key]
        post_prec = prec0 + len(xs) * cur_prec
        loc = (prec0 * mean0 + cur_prec * sum(xs)) / post_prec
        ss = sum((x - means[key]) ** 2 for x in xs)
        out[key] = (len(xs), loc, post_prec, 0.5 * len(xs) - 0.5, 0.5 * ss, bound)
    return out


def _log_normal(x, mean, prec):
    return 0.5 * (np.log(prec) - np.log(2 * np.pi)) - 0.5 * prec * (x - mean) ** 2


def label_conditioned_weights(state, dim):
    """Category log weights of every subject in one dimension, (U, 3), with
    category 3 conditioned on the current channel labels instead of
    marginalizing them: the sum of each score's density under its own
    subject cluster (the labels' stick prior cancels between categories).
    This is the allocation step of the uncollapsed sampler variant."""
    u, n, _ = state.scores.shape
    out = np.empty((u, 3))
    for subj in range(u):
        col = state.group_codes[subj] - 2
        xs = state.scores[subj, :, dim]
        out[subj, 0] = np.log(state.category_weights[dim, 0]) + sum(
            _log_normal(x, state.common_mean[dim], state.common_prec[dim]) for x in xs)
        out[subj, 1] = np.log(state.category_weights[dim, 1]) + sum(
            _log_normal(x, state.group_mean[dim, col], state.group_prec[dim, col])
            for x in xs)
        third = 0.0
        for chan in range(n):
            lab = state.channel_alloc[subj, chan, dim] - 4
            third += _log_normal(xs[chan], state.subject_mean[subj, dim, lab],
                                 state.subject_prec[subj, dim, lab])
        out[subj, 2] = np.log(state.category_weights[dim, 2]) + third
    return out


def label_conditioned_alloc_update(state, rng):
    """One allocation step of the uncollapsed variant, by explicit loops:
    each subject's category from label_conditioned_weights, then each
    channel label from its posterior (category 3) or its stick prior."""
    u, n, k = state.scores.shape
    j = state.max_subject_clusters
    for dim in range(k):
        weights = label_conditioned_weights(state, dim)
        for subj in range(u):
            probs = np.exp(weights[subj] - weights[subj].max())
            cat = 1 + rng.choice(3, p=probs / probs.sum())
            state.subject_alloc[subj, dim] = cat
            sticks = state.stick_weights[dim, state.group_codes[subj] - 2]
            for chan in range(n):
                probs = sticks.copy()
                if cat == 3:
                    probs *= [np.exp(_log_normal(state.scores[subj, chan, dim],
                                                 state.subject_mean[subj, dim, lab],
                                                 state.subject_prec[subj, dim, lab]))
                              for lab in range(j)]
                state.channel_alloc[subj, chan, dim] = 4 + rng.choice(j, p=probs / probs.sum())


def all_channel_stick_counts(state):
    """Channel-label counts n[k, group, j] over every channel of every
    subject, whatever its category (the stick counts of the uncollapsed
    variant)."""
    u, n, k = state.scores.shape
    counts = np.zeros((k, 2, state.max_subject_clusters), dtype=int)
    for subj in range(u):
        for chan in range(n):
            for dim in range(k):
                counts[dim, state.group_codes[subj] - 2,
                       state.channel_alloc[subj, chan, dim] - 4] += 1
    return counts


# ---------------------------------------------------------------------------
# Earlier forms of the sampler's draws, kept as references: the library
# draws the same variates from the generator with fewer checks per call.
# ---------------------------------------------------------------------------

def reference_normal_draw(rng, loc, scale):
    """Normal variates with array parameters, as rng.normal draws them."""
    return rng.normal(loc, scale)


def reference_gamma_draw(rng, shape):
    """Unit-rate gamma variates, as rng.gamma draws them."""
    return rng.gamma(shape)


def reference_dirichlet_rows(rng, conc):
    """One rng.dirichlet draw per row of the concentrations."""
    return np.array([rng.dirichlet(row) for row in conc])


def reference_truncated_gamma_batch(rng, shape, rate, lower):
    """truncated_gamma_batch with every entry past the bulk drawn through
    truncated_gamma_sample, which checks it again."""
    shape, rate, lower = (np.asarray(a, dtype=float) for a in (shape, rate, lower))
    bulk = _in_bulk(shape, rate, lower)
    a, b, low = shape[bulk], rate[bulk], lower[bulk]
    x = rng.standard_gamma(a) / b
    redo = np.flatnonzero(x <= low)
    for _ in range(_MAX_ROUNDS):
        if not redo.size:
            break
        x[redo] = rng.standard_gamma(a[redo]) / b[redo]
        redo = redo[x[redo] <= low[redo]]
    out = np.empty_like(shape)
    out[bulk] = x
    for i in np.flatnonzero(~bulk):
        out[i] = truncated_gamma_sample(rng, shape[i], rate[i], lower[i])
    return out


def reference_cluster_index(state, slots):
    """cluster_index as two np.where over (U, n, K): the category-3 slot
    plus the channel label, else the group or the common slot."""
    common, group, subject = slots
    category = state.subject_alloc[:, None, :]
    return np.where(category == 3, subject[:, None, :] + state.channel_alloc,
                    np.where(category == 2, group[:, None, :], common))


def reference_bootstrap_mean_var(rng, values, sample_size, reps):
    """Bootstrap variance of resample means from one int64 index array and
    one (reps, sample_size) gather."""
    idx = rng.integers(0, values.size, size=(reps, sample_size))
    return float(np.var(values[idx].mean(axis=1), ddof=1))


def reference_gcv_score(smoother, curves, penalty):
    """Pooled GCV score from a refit of every curve: mean squared residual
    / (1 - df/T)^2."""
    curves = np.asarray(curves, dtype=float).reshape(-1, smoother.time_grid.size)
    resid = smoother.fit(curves, penalty) - curves
    t = smoother.time_grid.size
    denom = (1.0 - smoother.effective_df(penalty) / t) ** 2
    return float(np.vdot(resid, resid)) / (curves.shape[0] * t * denom)


def reference_write_table(path, header, *columns):
    """write_table through the csv module's writer: the header row, then
    one row of the columns' tolist() values per entry."""
    fields = []
    for col in map(np.asarray, columns):
        fields += [col.tolist()] if col.ndim == 1 else [c.tolist() for c in col.T]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*fields))


# ---------------------------------------------------------------------------
# Convergence diagnostics one series at a time, the library's earlier
# form: the batched diagnose_archives must give the same rows.
# ---------------------------------------------------------------------------

_CONSTANT_TOL = 1e-12


def reference_split_rhat(arr):
    """Split R-hat of one (chains, draws) array."""
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


def reference_autocovariances(arr):
    """Mean autocovariance over chains, one FFT and spectrum per chain."""
    m, n = arr.shape
    size = 2 * n
    acov = np.zeros(n)
    for row in arr:
        centred = row - row.mean()
        spec = np.fft.rfft(centred, size)
        acov += np.fft.irfft(spec * np.conj(spec), size)[:n] / n
    return acov / m


def reference_effective_sample_size(arr):
    """Pair-truncated ESS of one (chains, draws) array, summed lag by lag."""
    m, n = arr.shape
    if n < 4:
        raise ValueError("need at least 4 draws per chain")
    within = arr.var(axis=1, ddof=1)
    w = within.mean()
    if w < _CONSTANT_TOL * max(1.0, float(np.abs(arr).max()) ** 2):
        return float(m * n)
    acov = reference_autocovariances(arr)
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


def reference_diagnose_archives(archives, rhat_threshold=1.1, ess_threshold=1000.0):
    """diagnose_archives as a loop over scalars, each stacked on its own."""
    rows = []
    for j, name in enumerate(archives[0].scalar_names):
        chains = np.stack([a.scalars[:, j] for a in archives])
        pooled = chains.ravel()
        flags = []
        constant = chains.var(axis=1).mean() < _CONSTANT_TOL * max(
            1.0, float(np.abs(chains).max()) ** 2)
        rhat = reference_split_rhat(chains)
        ess = reference_effective_sample_size(chains)
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
