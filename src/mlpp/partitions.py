"""Partition summaries for the subject-level clustering.

A sampled allocation induces, per latent dimension, a partition of the
subjects: one shared block, blocks by clinical group, or singletons.
This module scores partitions (adjusted Rand index, variation of
information), builds posterior similarity matrices, and reports a point
estimate with a credible ball around it.

A run keeps thousands of draws but visits few distinct partitions, so
every summary is computed once per distinct partition and weighted by
its count: post-processing cost scales with the number of distinct
partitions, not with the number of draws.  Draws are grouped by the
partition they name, which is reported as its first sampled labelling.

Beside that work, one dimension's report has a fixed cost of a few dozen
numpy calls, so the small steps avoid paying more: the category shares
come from one count, the scores against the truth share one contingency
table, and the best matching of its blocks runs on Python lists.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .fpca import GROUP_A
from .model import CAT_COMMON, CAT_GROUP, CAT_SUBJECT
from .tables import format_text_table, write_table


def _contingency(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Counts of items per (block of a, block of b); rows follow the sorted
    labels of a, columns the sorted labels of b."""
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    if a.size != b.size:
        raise ValueError("partitions must label the same items")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    ka, kb = ai.max() + 1, bi.max() + 1
    return np.bincount(ai * kb + bi, minlength=ka * kb).reshape(ka, kb)


def adjusted_rand_index(a, b) -> float:
    """Adjusted Rand index between two partitions (1 = identical,
    0 = chance level).  Degenerate pairs where the correction has a zero
    denominator (for instance two all-singleton partitions) return 1.0
    exactly when the partitions agree."""
    return _table_ari(_contingency(a, b))


def _table_ari(table: np.ndarray) -> float:
    """adjusted_rand_index from the contingency table of the two
    partitions; the pair counts are exact Python integers."""
    cells = table.tolist()

    def _pairs(counts):
        return sum(c * (c - 1) // 2 for c in counts)

    n = sum(map(sum, cells))
    index = sum(map(_pairs, cells))
    sum_a = _pairs(map(sum, cells))
    sum_b = _pairs(map(sum, zip(*cells)))
    total = n * (n - 1) // 2
    expected = sum_a * sum_b / total if total else 0.0
    max_index = 0.5 * (sum_a + sum_b)
    if max_index == expected:
        return 1.0
    return float((index - expected) / (max_index - expected))


def variation_of_information(a, b) -> float:
    """Variation of information between two partitions, in bits.

    Summed per occupied cell as p (log pa + log pb - 2 log p), which is
    exactly 0 for two labellings of one partition (each cell then equals
    its row and column total).
    """
    table = _contingency(a, b)
    p = table / table.sum()
    rows, cols = np.nonzero(table)
    cell = p[rows, cols]
    terms = np.log2(p.sum(axis=1))[rows] + np.log2(p.sum(axis=0))[cols] \
        - 2.0 * np.log2(cell)
    return float(max(np.sum(cell * terms), 0.0))


def subject_partition(subject_alloc_dim: np.ndarray,
                      group_codes: np.ndarray) -> np.ndarray:
    """Canonical subject labels for one dimension: category 1 maps to a
    single shared block (0), category 2 to one block per clinical group
    (the group code less 1), and category 3 to a singleton per subject,
    numbered after the last group's label.  Leading axes (one row per
    draw) are kept; the last axis runs over subjects."""
    alloc = np.asarray(subject_alloc_dim, dtype=int)
    codes = np.asarray(group_codes, dtype=int)
    if alloc.shape[-1:] != codes.shape:
        raise ValueError("one category per subject expected")
    return np.where(alloc == CAT_COMMON, 0,
                    np.where(alloc == CAT_GROUP, 1 + (codes - GROUP_A),
                             codes.max(initial=0) + np.arange(codes.size)))


def partition_draws(subject_alloc_draws: np.ndarray, group_codes: np.ndarray,
                    dim: int) -> np.ndarray:
    """Canonical subject partitions, one row per kept draw."""
    return subject_partition(np.asarray(subject_alloc_draws)[:, :, dim], group_codes)


def _first_occurrences(rows: np.ndarray):
    """First index of each distinct row of a 2-D integer array, in order,
    and each row's index into them.  Rows are compared as raw bytes: a
    one-dimensional np.unique over them sorts several times faster than
    np.unique(axis=0), which compares them field by field.  Integer labels
    are first cast to the narrowest integer type that holds them all, which
    keeps rows distinct and shortens each key."""
    rows = np.asarray(rows)
    if rows.dtype.kind in "iu" and rows.size:
        narrow = np.promote_types(np.min_scalar_type(rows.min()),
                                  np.min_scalar_type(rows.max()))
        if narrow.itemsize < rows.dtype.itemsize:
            rows = rows.astype(narrow)
    rows = np.ascontiguousarray(rows)
    keys = rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1])))
    _, first, inverse = np.unique(keys.ravel(), return_index=True, return_inverse=True)
    order = np.argsort(first)
    return first[order], np.argsort(order)[inverse]


def _distinct(draws: np.ndarray):
    """Distinct partitions among the rows of an (R, n) array of labels, in
    order of first occurrence: each one's first sampled labelling, how
    many draws hold it, and each draw's index into them.  Two labellings
    name one partition when they agree after each item is relabelled by
    the position of the first item in its block; only the distinct
    labellings are relabelled."""
    first, inverse = _first_occurrences(draws)
    labellings = draws[first]
    forms = (labellings[:, :, None] == labellings[:, None, :]).argmax(axis=2)
    part_first, part_of = _first_occurrences(forms)
    index = part_of[inverse]
    return labellings[part_first], np.bincount(index), index


def _n_blocks(rows: np.ndarray) -> np.ndarray:
    """Number of distinct labels in each row of a 2-D array."""
    return 1 + np.count_nonzero(np.diff(np.sort(rows, axis=1), axis=1), axis=1)


def _same_block(rows: np.ndarray) -> np.ndarray:
    """(C, n, n) booleans: whether items i and j share a block in row c."""
    return rows[:, :, None] == rows[:, None, :]


def _row_sums(values: np.ndarray, lengths) -> np.ndarray:
    """values[i, :lengths[i]].sum() for every row i of a 2-D array that
    holds +0.0 past each row's length.

    Rows of one length are summed together along the last axis, where
    numpy sums each row as it sums a one-dimensional array (pairwise, in
    blocks of eight), so every sum equals its own np.sum call bit for bit.
    Numpy sums fewer than eight elements one after another, and adding
    +0.0 changes no sum other than -0.0, which neither the probabilities
    nor the VI cell terms summed here give.  So all rows shorter than eight
    are summed together, over the first seven columns or fewer.
    """
    if values.shape[1] < 8:
        return values.sum(axis=1)
    lengths = np.broadcast_to(lengths, values.shape[:1])
    spans = np.where(lengths < 8, 7, lengths)
    out = np.empty(values.shape[0])
    for span in set(spans.tolist()):
        pick = spans == span
        out[pick] = values[pick, :span].sum(axis=1)
    return out


def _similarity(same: np.ndarray, counts: np.ndarray, n_draws: int) -> np.ndarray:
    """Co-clustering frequencies from the same-block matrices of the
    distinct partitions and the number of draws holding each."""
    together = counts @ same.reshape(len(counts), -1)
    return together.reshape(same.shape[1:]) / n_draws


def similarity_matrix(draws: np.ndarray) -> np.ndarray:
    """Posterior co-clustering frequencies; draws is (R, n) labels."""
    draws = np.asarray(draws)
    rows, counts, _ = _distinct(draws)
    return _similarity(_same_block(rows), counts, draws.shape[0])


def vi_point_estimate(draws: np.ndarray):
    """Point-estimate partition: the sampled partition minimizing the
    Jensen lower bound on the posterior expected variation of information.

    Ties go to the candidate with fewer blocks, then to the earliest
    draw.  Returns (labels, bound_value).
    """
    draws = np.asarray(draws)
    rows, counts, inverse = _distinct(draws)
    same = _same_block(rows)
    best, bound = _vi_point_estimate(rows, inverse, _n_blocks(rows), same,
                                     _similarity(same, counts, draws.shape[0]))
    return rows[best].copy(), bound


def _vi_point_estimate(candidates, inverse, blocks, same, sim):
    """vi_point_estimate over the distinct partitions of the draws, given
    each one's block count and same-block matrix and the similarity
    matrix; every candidate is scored in one (C, n, n) pass.  Returns the
    winning candidate's index and its bound value."""
    n = candidates.shape[1]
    log_sizes = np.log2(same.sum(axis=2)).sum(axis=1)
    log_overlaps = np.log2((sim * same).sum(axis=2)).sum(axis=1)
    mean_log_sizes = np.mean(log_sizes[inverse]) / n
    bounds = log_sizes / n + mean_log_sizes - 2.0 * log_overlaps / n
    best = int(np.lexsort((blocks, bounds))[0])
    return best, float(bounds[best])


def _vi_to_centre(centre, rows: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """variation_of_information(centre, row) for every row of a (C, n)
    array of labels with the given block counts, bit for bit.

    The contingency tables of all rows come from one bincount, with the
    centre's blocks as table rows: the centre's labels and each row's are
    ranked by one sort per labelling.  Each table is zero-padded to the
    most blocks of any row.  The block totals, cells, logarithms and sums
    are those variation_of_information computes for one table: a sum over
    table columns is taken over the row's own blocks (_row_sums), and
    the column totals add table rows in order, except for a one-block
    row, whose single column numpy sums pairwise.
    """
    centre = np.asarray(centre).ravel()
    c, n = rows.shape
    if centre.size != n:
        raise ValueError("partitions must label the same items")
    # rank the labels of each row, the centre last, through flat indices
    labels = np.vstack([rows, centre])
    order = np.argsort(labels, axis=1) + np.arange(0, labels.size, n)[:, None]
    ordered = labels.ravel()[order]
    rank = np.empty(labels.size, dtype=np.intp)
    rank[order[:, 0]] = 0
    rank[order[:, 1:]] = np.cumsum(ordered[:, 1:] != ordered[:, :-1], axis=1)
    centre_rank = rank[c * n:]
    ka, width = int(centre_rank.max()) + 1, int(blocks.max())
    cells = (np.arange(c)[:, None] * ka + centre_rank) * width + rank[:c * n].reshape(c, n)
    table = np.bincount(cells.ravel(), minlength=c * ka * width).reshape(c, ka, width)
    p = table / n
    row_p = _row_sums(p.reshape(c * ka, width), np.repeat(blocks, ka)).reshape(c, ka)
    col_p = p[:, 0].copy()
    for block in range(1, ka):
        col_p += p[:, block]
    single = blocks == 1
    if single.any():
        col_p[single, 0] = _row_sums(p[single, :, 0], ka)
    which, r, k = np.nonzero(table)
    cell = p[which, r, k]
    terms = np.log2(row_p[which, r]) + np.log2(col_p[which, k]) - 2.0 * np.log2(cell)
    counts = np.bincount(which, minlength=c)
    padded = np.zeros((c, counts.max()))
    padded[which, np.arange(which.size) - np.repeat(np.cumsum(counts) - counts, counts)] = \
        cell * terms
    total = _row_sums(padded, counts)
    return np.where(total < 0.0, 0.0, total)


def credible_ball(draws: np.ndarray, centre: np.ndarray, level: float = 0.95):
    """Credible ball of posterior partitions around a centre.

    The radius is the smallest VI distance whose closed ball holds at
    least the requested posterior mass.  The three bound summaries
    follow the usual convention: the upper vertical bounds are the
    in-ball partitions with the fewest blocks (farthest such from the
    centre), the lower vertical bounds those with the most blocks, and
    the horizontal bounds the in-ball partitions at maximal distance.
    All ties are reported, each partition once as its first sampled
    labelling, with its frequency and the distance of that labelling.
    Distances within 1e-12 count as equal: VI sums its cells in label
    order, so equal distances can differ in the last bits.
    """
    draws = np.asarray(draws)
    _check_level(level)
    rows, counts, inverse = _distinct(draws)
    return _credible_ball(rows, counts, inverse, _n_blocks(rows), centre, level)


def _check_level(level: float) -> None:
    if not 0.0 < level <= 1.0:
        raise ValueError("level must lie in (0, 1]")


def _credible_ball(rows, counts, inverse, blocks, centre, level):
    """credible_ball over the distinct partitions of the draws, given each
    one's count, block count and the draws' indices into them.  Past the
    distances, the ball is picked from per-partition Python lists: the
    radius is the distance at which the counts, summed in order of
    distance, first reach the draws the level asks for."""
    r = inverse.size
    dist = _vi_to_centre(centre, rows, blocks).tolist()
    counts, blocks = counts.tolist(), blocks.tolist()
    needed, held = math.ceil(level * r), 0
    for i in sorted(range(len(dist)), key=dist.__getitem__):
        held += counts[i]
        if held >= needed:
            radius = dist[i]
            break
    inside = [i for i, d in enumerate(dist) if d <= radius + 1e-12]
    fewest = min(blocks[i] for i in inside)
    most = max(blocks[i] for i in inside)

    def _farthest(pool):
        far = max(dist[i] for i in pool) - 1e-12
        picked = [i for i in pool if dist[i] >= far]
        return [{"labels": labels, "n_blocks": blocks[i], "distance": dist[i],
                 "frequency": counts[i] / r}
                for i, labels in zip(picked, rows[picked].astype(int, copy=False).tolist())]

    return {
        "level": level,
        "radius": radius,
        "coverage": sum(counts[i] for i in inside) / r,
        "vertical_upper": _farthest([i for i in inside if blocks[i] == fewest]),
        "vertical_lower": _farthest([i for i in inside if blocks[i] == most]),
        "horizontal": _farthest(inside),
    }


def _best_matching_total(table: np.ndarray) -> int:
    """Largest sum of entries of a nonnegative integer table taken at most
    one per row and per column.

    The Hungarian method with row and column potentials on the negated
    table, one augmenting path per row of the shorter side (O(r^2 c)).
    The tables are small (blocks by blocks), so the method runs on Python
    lists of integers: numpy would spend more on the dozen calls of each
    augmenting step than on their arithmetic, and scipy.optimize takes
    longer to import than a summarize run takes to compute.
    """
    table = np.asarray(table)
    if table.shape[0] > table.shape[1]:
        table = table.T
    gains = table.tolist()
    n, m = table.shape
    u, v = [0] * (n + 1), [0] * (m + 1)
    owner = [0] * (m + 1)                     # 1-based row matched to column j; 0 = none
    way = [0] * (m + 1)
    for row in range(1, n + 1):
        owner[0], col = row, 0
        slack = [math.inf] * (m + 1)
        free = list(range(1, m + 1))          # the columns not yet on the path
        used = [0]
        while owner[col] != 0:
            i = owner[col]
            gain, ui = gains[i - 1], u[i]
            delta, nxt = math.inf, 0
            for j in free:
                reduced = -gain[j - 1] - ui - v[j]
                if reduced < slack[j]:
                    slack[j], way[j] = reduced, col
                if slack[j] < delta:
                    delta, nxt = slack[j], j
            for j in used:
                u[owner[j]] += delta
                v[j] -= delta
            for j in free:
                slack[j] -= delta
            free.remove(nxt)
            used.append(nxt)
            col = nxt
        while col:
            prev = way[col]
            owner[col] = owner[prev]
            col = prev
    return sum(gains[i - 1][j - 1] for j, i in enumerate(owner) if j and i)


def _misclassified(table: np.ndarray) -> int:
    """misclassification_count from the contingency table of the two
    partitions."""
    return int(table.sum()) - _best_matching_total(table)


def misclassification_count(estimate, truth) -> int:
    """Smallest number of disagreeing items over all matchings of the
    estimated blocks to the true blocks."""
    return _misclassified(_contingency(estimate, truth))


def summarize_dimension(subject_alloc_draws: np.ndarray, group_codes: np.ndarray,
                        dim: int, truth_labels=None, level: float = 0.95) -> dict:
    """Full partition report for one latent dimension."""
    return _summarize_dimension(subject_alloc_draws, group_codes, dim,
                                truth_labels, level)[0]


def _summarize_dimension(subject_alloc_draws, group_codes, dim, truth_labels, level):
    """summarize_dimension's report and the similarity matrix behind it."""
    _check_level(level)
    alloc = np.asarray(subject_alloc_draws, dtype=int)[:, :, dim]
    draws = subject_partition(alloc, group_codes)
    rows, counts, inverse = _distinct(draws)
    blocks = _n_blocks(rows)
    same = _same_block(rows)
    sim = _similarity(same, counts, draws.shape[0])
    best, bound = _vi_point_estimate(rows, inverse, blocks, same, sim)
    estimate = rows[best]
    ball = _credible_ball(rows, counts, inverse, blocks, estimate, level)
    # integer counts over the size: the floats np.mean of each indicator gives
    shares = np.bincount(alloc.ravel(), minlength=CAT_SUBJECT + 1).tolist()
    category_share = {name: shares[cat] / alloc.size for name, cat in
                      (("common", CAT_COMMON), ("group", CAT_GROUP),
                       ("subject", CAT_SUBJECT))}
    report = {
        "dim": dim + 1,
        "estimate": estimate.tolist(),
        "n_blocks": int(blocks[best]),
        "expected_vi_bound": bound,
        "credible_ball": ball,
        "category_share": category_share,
    }
    if truth_labels is not None:
        table = _contingency(estimate, truth_labels)
        report["ari_to_truth"] = _table_ari(table)
        report["misclassified"] = _misclassified(table)
    return report, sim


def write_similarity_csv(path, sim: np.ndarray) -> None:
    """The similarity matrix, subjects numbered from 1 in dataset order."""
    ids = np.arange(1, len(sim) + 1)
    write_table(path, ["subject_id"] + [str(i) for i in ids.tolist()], ids, sim)


def write_partition_report(path, reports: list) -> None:
    Path(path).write_text(json.dumps({"dimensions": reports}, indent=2,
                                     sort_keys=True) + "\n")


def format_partition_table(reports: list) -> str:
    """Plain-text table over dimensions: blocks, ball radius, category
    shares, and (when the truth is known) ARI and misclassifications."""
    have_truth = any("ari_to_truth" in rep for rep in reports)
    header = ["dim", "blocks", "radius", "share_common", "share_group",
              "share_subject"]
    if have_truth:
        header += ["ari", "misclassified"]
    rows = [header]
    for rep in reports:
        row = [str(rep["dim"]), str(rep["n_blocks"]),
               f"{rep['credible_ball']['radius']:.3f}",
               f"{rep['category_share']['common']:.3f}",
               f"{rep['category_share']['group']:.3f}",
               f"{rep['category_share']['subject']:.3f}"]
        if have_truth:
            row += [f"{rep.get('ari_to_truth', float('nan')):.3f}",
                    str(rep.get("misclassified", ""))]
        rows.append(row)
    return format_text_table(rows)
