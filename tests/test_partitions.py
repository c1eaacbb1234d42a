import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlpp.partitions import (_best_matching_total, _contingency, _n_blocks,
                             _vi_to_centre, adjusted_rand_index, credible_ball,
                             format_partition_table, misclassification_count,
                             partition_draws, similarity_matrix,
                             subject_partition, summarize_dimension,
                             variation_of_information, vi_point_estimate,
                             write_partition_report, write_similarity_csv)
from conftest import (BELL, all_partitions, brute_force_ari, brute_force_vi,
                      naive_contingency, naive_credible_ball,
                      naive_partition_key, naive_similarity_matrix,
                      naive_vi_point_estimate)


def test_partition_generator_counts():
    for n, bell in BELL.items():
        if n:
            assert len(all_partitions(n)) == bell


def test_metrics_match_brute_force_exhaustively_small():
    # full pairwise sweep at n=4 here; the n<=6 sweep runs in the
    # acceptance suite
    parts = all_partitions(4)
    for a, b in itertools.product(parts, repeat=2):
        assert abs(adjusted_rand_index(a, b) - brute_force_ari(a, b)) <= 1e-12
        assert abs(variation_of_information(a, b) - brute_force_vi(a, b)) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 8), min_size=1, max_size=40), st.permutations(range(9)))
def test_vi_is_exactly_zero_between_relabellings(labels, names):
    a = np.array(labels)
    assert variation_of_information(a, a) == 0.0
    assert variation_of_information(a, np.array(names)[a]) == 0.0


def test_ari_hand_values():
    assert adjusted_rand_index([1, 1, 2, 2], [1, 1, 2, 2]) == 1.0
    assert adjusted_rand_index([1, 1, 2, 2], [7, 7, 5, 5]) == 1.0
    assert adjusted_rand_index([1, 1, 2, 2], [1, 2, 1, 2]) == pytest.approx(-0.5)
    assert adjusted_rand_index([1, 2, 3], [1, 2, 3]) == 1.0
    assert adjusted_rand_index([1, 1, 1], [1, 1, 1]) == 1.0


def test_ari_anchor_one_item_moved():
    # hand count over the 780 item pairs: 361 pairs joint in both
    # partitions, 380 and 361 within-block pairs, giving 14440/15181
    truth = np.repeat([0, 1], 20)
    moved = truth.copy()
    moved[0] = 2
    val = adjusted_rand_index(moved, truth)
    assert val == pytest.approx(14440.0 / 15181.0, abs=1e-12)
    assert val == pytest.approx(brute_force_ari(moved, truth), abs=1e-12)
    assert round(val, 2) == 0.95


def test_ari_anchor_two_items_moved():
    # two items from one block moved together into a new cluster;
    # pair counts 344/380/344 give exactly 3440/3791
    truth = np.repeat([0, 1], 20)
    moved = truth.copy()
    moved[[0, 1]] = 2
    val = adjusted_rand_index(moved, truth)
    assert val == pytest.approx(3440.0 / 3791.0, abs=1e-12)
    assert val == pytest.approx(brute_force_ari(moved, truth), abs=1e-12)
    assert round(val, 2) == 0.91


def test_vi_hand_values():
    assert variation_of_information([1, 1, 2, 2], [1, 1, 2, 2]) == 0.0
    assert variation_of_information([1, 1, 2, 2], [3, 3, 3, 3]) == pytest.approx(1.0)
    assert variation_of_information([1, 1, 2, 2], [1, 2, 1, 2]) == pytest.approx(2.0)


def test_vi_is_a_metric():
    rng = np.random.default_rng(0)
    for _ in range(40):
        a, b, c = (rng.integers(0, 4, 12) for _ in range(3))
        dab = variation_of_information(a, b)
        assert dab == pytest.approx(variation_of_information(b, a), abs=1e-12)
        assert variation_of_information(a, a) == 0.0
        assert dab <= variation_of_information(a, c) \
            + variation_of_information(c, b) + 1e-10


def test_metric_input_validation():
    with pytest.raises(ValueError, match="same items"):
        adjusted_rand_index([1, 2], [1, 2, 3])


def test_subject_partition_mapping():
    alloc = np.array([1, 1, 2, 2, 3, 3])
    codes = np.array([2, 3, 2, 3, 2, 3])
    np.testing.assert_array_equal(subject_partition(alloc, codes),
                                  [0, 0, 1, 2, 7, 8])
    # three groups: group blocks 1 to 3, singletons after the last, 4 + u
    codes = np.array([2, 3, 4, 4, 3, 2])
    np.testing.assert_array_equal(subject_partition(alloc, codes), [0, 0, 3, 3, 8, 9])
    with pytest.raises(ValueError, match="per subject"):
        subject_partition(alloc[:4], codes)


def test_partition_draws_matches_per_row_mapping():
    rng = np.random.default_rng(5)
    draws = rng.integers(1, 4, size=(30, 7, 2))
    codes = rng.integers(2, 4, size=7)
    for dim in range(2):
        rows = [subject_partition(row, codes) for row in draws[:, :, dim]]
        np.testing.assert_array_equal(partition_draws(draws, codes, dim), rows)


def test_partition_draws_stacks_dimension():
    draws = np.zeros((3, 4, 2), dtype=int)
    draws[:, :, 0] = 2
    draws[:, :, 1] = 1
    codes = np.array([2, 2, 3, 3])
    by_group = partition_draws(draws, codes, 0)
    np.testing.assert_array_equal(by_group, np.tile([1, 1, 2, 2], (3, 1)))
    shared = partition_draws(draws, codes, 1)
    np.testing.assert_array_equal(shared, np.zeros((3, 4)))


def test_similarity_matrix_frozen():
    draws = np.array([[1, 1, 2], [1, 2, 2]])
    np.testing.assert_allclose(similarity_matrix(draws),
                               [[1.0, 0.5, 0.0],
                                [0.5, 1.0, 0.5],
                                [0.0, 0.5, 1.0]])


def test_vi_point_estimate_picks_posterior_favorite():
    rows = [[0, 0, 1, 1]] * 17 + [[0, 1, 2, 3]] * 2 + [[0, 0, 0, 0]]
    estimate, bound = vi_point_estimate(np.array(rows))
    np.testing.assert_array_equal(estimate, [0, 0, 1, 1])
    assert np.isfinite(bound)


def test_vi_point_estimate_tie_breaks_to_first_occurrence():
    # rows 0 and 1 are the same partition under different label names, so
    # their bound values tie exactly; the first sampled labeling wins
    draws = np.array([[5, 5, 9], [9, 9, 5], [1, 2, 3], [9, 9, 5]])
    estimate, _ = vi_point_estimate(draws)
    np.testing.assert_array_equal(estimate, [5, 5, 9])


def test_credible_ball_degenerate_and_mixed():
    centre = np.array([0, 0, 1, 1, 2])
    coarse = np.array([0, 0, 0, 0, 0])
    draws = np.array([centre] * 19 + [coarse])

    ball95 = credible_ball(draws, centre, level=0.95)
    assert ball95["radius"] == 0.0
    assert ball95["coverage"] == pytest.approx(0.95)
    for side in ("vertical_upper", "vertical_lower", "horizontal"):
        assert len(ball95[side]) == 1
        np.testing.assert_array_equal(ball95[side][0]["labels"], centre)
        assert ball95[side][0]["frequency"] == pytest.approx(0.95)

    ball100 = credible_ball(draws, centre, level=1.0)
    h_centre = -(0.4 * np.log2(0.4) * 2 + 0.2 * np.log2(0.2))
    assert ball100["radius"] == pytest.approx(h_centre)
    assert ball100["coverage"] == 1.0
    np.testing.assert_array_equal(ball100["vertical_upper"][0]["labels"], coarse)
    assert ball100["vertical_upper"][0]["n_blocks"] == 1
    np.testing.assert_array_equal(ball100["vertical_lower"][0]["labels"], centre)
    np.testing.assert_array_equal(ball100["horizontal"][0]["labels"], coarse)
    assert ball100["horizontal"][0]["distance"] == pytest.approx(h_centre)

    with pytest.raises(ValueError, match="level"):
        credible_ball(draws, centre, level=0.0)


def test_best_matching_total_matches_scipy_assignment():
    # square, tall and wide tables, up to 8 a side in even trials and up
    # to 40 a side in odd ones
    from scipy.optimize import linear_sum_assignment
    rng = np.random.default_rng(12)
    for trial in range(300):
        table = rng.integers(0, 20, size=rng.integers(1, 41 if trial % 2 else 9, size=2))
        table[rng.random(table.shape) < 0.4] = 0
        rows, cols = linear_sum_assignment(-table)
        assert _best_matching_total(table) == table[rows, cols].sum()


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3).flatmap(lambda g: st.tuples(
    st.permutations(range(2, g + 2)), st.lists(st.integers(2, g + 1), max_size=6))),
    st.integers(1, 30), st.integers(1, 3), st.integers(0, 2 ** 32 - 1), st.data())
def test_summary_report_equals_separate_summaries(codes, r, k, seed, data):
    # n_blocks, category_share, ari_to_truth and misclassified against one
    # np.unique, np.mean or metric call each on the reported estimate
    codes = np.array(codes[0] + codes[1])
    rng = np.random.default_rng(seed)
    alloc = rng.integers(1, 4, size=(r, codes.size, k))
    alloc[rng.random(alloc.shape) < data.draw(st.floats(0.0, 1.0))] = 2
    dim = data.draw(st.integers(0, k - 1))
    truth = np.array(data.draw(st.lists(st.integers(0, 4), min_size=codes.size,
                                        max_size=codes.size)))
    report = summarize_dimension(alloc, codes, dim, truth_labels=truth)
    estimate = np.array(report["estimate"])
    assert report["n_blocks"] == np.unique(estimate).size
    for name, cat in (("common", 1), ("group", 2), ("subject", 3)):
        assert report["category_share"][name] == np.mean(alloc[:, :, dim] == cat)
    assert report["ari_to_truth"] == adjusted_rand_index(estimate, truth)
    assert report["misclassified"] == misclassification_count(estimate, truth)


def test_misclassification_count_cases():
    assert misclassification_count([1, 1, 2, 2], [2, 2, 1, 1]) == 0
    assert misclassification_count([1, 1, 2, 2], [1, 1, 1, 2]) == 1
    assert misclassification_count([0, 0, 1, 1, 2], [5, 5, 5, 7, 7]) == 2
    assert misclassification_count([1, 2, 3, 4], [9, 9, 9, 9]) == 3


def test_summarize_dimension_with_truth():
    draws = np.full((10, 6, 2), 2, dtype=int)
    draws[:, :, 1] = 1
    codes = np.array([2, 2, 2, 3, 3, 3])
    report = summarize_dimension(draws, codes, dim=0,
                                 truth_labels=[0, 0, 0, 1, 1, 1])
    assert report["dim"] == 1
    assert report["n_blocks"] == 2
    assert report["ari_to_truth"] == 1.0
    assert report["misclassified"] == 0
    assert report["category_share"] == {"common": 0.0, "group": 1.0,
                                        "subject": 0.0}
    assert report["credible_ball"]["radius"] == 0.0

    shared = summarize_dimension(draws, codes, dim=1)
    assert shared["n_blocks"] == 1
    assert "ari_to_truth" not in shared


def test_report_files_and_table(tmp_path):
    draws = np.full((6, 4, 1), 2, dtype=int)
    codes = np.array([2, 2, 3, 3])
    report = summarize_dimension(draws, codes, dim=0, truth_labels=[0, 0, 1, 1])
    write_partition_report(tmp_path / "report.json", [report])
    text = (tmp_path / "report.json").read_text()
    assert '"dimensions"' in text

    table = format_partition_table([report])
    assert "ari" in table.splitlines()[0]
    assert "1.000" in table

    sim = similarity_matrix(partition_draws(draws, codes, 0))
    write_similarity_csv(tmp_path / "sim.csv", sim)
    rows = (tmp_path / "sim.csv").read_text().strip().splitlines()
    assert rows[0] == "subject_id,1,2,3,4"
    assert len(rows) == 5


@st.composite
def repetitive_draws(draw):
    """(R, n) label draws over a pool of few distinct rows, each row drawn
    many times.  Pool rows come from the canonical subject mapping, so a
    lone category-1 subject (label 0) and a singleton (label 3 + i) can
    name the same partition, and some rows are relabelled copies of
    others, which ties their VI bounds exactly."""
    n = draw(st.integers(1, 7))
    codes = np.array(draw(st.lists(st.integers(2, 3), min_size=n, max_size=n)))
    alloc = st.lists(st.integers(1, 3), min_size=n, max_size=n)
    pool = [subject_partition(np.array(draw(alloc)), codes)
            for _ in range(draw(st.integers(1, 5)))]
    for row in list(pool):
        if draw(st.booleans()):
            names = np.array(draw(st.permutations(range(n + 3))))
            pool.append(names[row])
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=60))
    return np.array([pool[i] for i in picks])


@st.composite
def pooled_labellings(draw):
    """(R, n) draws over a pool of few rows of arbitrary labels; small
    label ranges make partitions at one VI distance from a centre
    common."""
    n = draw(st.integers(1, 8))
    row = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    pool = draw(st.lists(row, min_size=1, max_size=8))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=40))
    return np.array([pool[i] for i in picks])


@st.composite
def many_labellings(draw):
    """(R, 20) draws holding 200 to 300 distinct labellings of 20 subjects,
    as category-3 channel labels 4..3+J give them, plus relabelled copies
    of some and repeats, so that several labellings name one partition."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    j = draw(st.integers(2, 8))
    pool = np.unique(4 + rng.integers(0, j, (400, 20)), axis=0)[:draw(st.integers(200, 300))]
    names = np.array([4 + rng.permutation(j) for _ in range(40)])
    copies = np.take_along_axis(names, pool[:40] - 4, axis=1)
    pool = np.concatenate([pool, copies])
    picks = np.concatenate([np.arange(len(pool)), rng.integers(0, len(pool), 100)])
    return pool[rng.permutation(picks)]


@settings(max_examples=300, deadline=None)
@given(repetitive_draws() | pooled_labellings() | many_labellings(), st.data())
def test_distinct_partition_summaries_equal_per_draw_loops(draws, data):
    r = draws.shape[0]
    level = data.draw(st.sampled_from([1.0, 1.0 / r, 0.5, 0.95])
                      | st.floats(1e-6, 1.0))
    sim = similarity_matrix(draws)
    assert sim.dtype == np.float64
    assert np.array_equal(sim, naive_similarity_matrix(draws))

    estimate, bound = vi_point_estimate(draws)
    ref_estimate, ref_bound = naive_vi_point_estimate(draws)
    assert np.array_equal(estimate, ref_estimate)
    assert bound == ref_bound

    assert credible_ball(draws, estimate, level) == \
        naive_credible_ball(draws, estimate, level)


def test_credible_ball_merges_labellings_of_one_partition():
    # each case: draws naming one partition under several labellings, and
    # the bound that must list it once, as its first sampled labelling
    # with the summed frequency
    cases = [
        # a lone category-1 subject (label 0) and a category-3 singleton
        # (label 3) both leave every subject alone
        ([[1, 1, 2], [0, 4, 5], [3, 4, 5], [0, 4, 5], [1, 1, 2], [3, 4, 5]],
         [1, 1, 2], "vertical_lower", [0, 4, 5], 4 / 6),
        # relabellings that do not keep the order of the labels
        ([[1, 1, 2, 2, 0]] * 3 + [[1, 1, 2, 2, 22]] * 7,
         [1, 1, 2, 2, 0], "horizontal", [1, 1, 2, 2, 0], 1.0),
        ([[5, 5, 4]] * 3 + [[4, 4, 5]] * 7, [5, 5, 4], "horizontal", [5, 5, 4], 1.0),
    ]
    for draws, centre, side, first, frequency in cases:
        draws, centre = np.array(draws), np.array(centre)
        ball = credible_ball(draws, centre, level=1.0)
        assert ball == naive_credible_ball(draws, centre, level=1.0)
        assert ball[side] == [{"labels": first, "n_blocks": len(set(first)),
                               "distance": ball["radius"], "frequency": frequency}]


def test_credible_ball_reports_ties_equal_up_to_rounding():
    # both partitions lie at one VI distance from the centre; summed over
    # the cells in label order, the second comes out 1 ulp larger
    draws = np.array([[0, 0, 0, 1, 1, 2], [0, 0, 0, 2, 1, 2]])
    ball = credible_ball(draws, np.zeros(6, dtype=int), level=1.0)
    assert ball == naive_credible_ball(draws, np.zeros(6, dtype=int), level=1.0)
    for side in ("vertical_upper", "vertical_lower", "horizontal"):
        assert [b["labels"] for b in ball[side]] == draws.tolist()


@settings(max_examples=300, deadline=None)
@given(repetitive_draws() | pooled_labellings(), st.data())
def test_credible_ball_is_invariant_under_relabelling_draws(draws, data):
    # an independent permutation of label names per draw leaves every
    # partition, hence the ball, as it was; distances may move in the
    # last bits, within the ball's own tolerance
    r, n = draws.shape
    names = np.array([data.draw(st.permutations(range(n + 3))) for _ in range(r)])
    relabelled = np.take_along_axis(names, draws, axis=1)
    centre = draws[data.draw(st.integers(0, r - 1))]
    level = data.draw(st.sampled_from([1.0, 0.5, 0.95]) | st.floats(1e-6, 1.0))
    ball = credible_ball(draws, centre, level)
    moved = credible_ball(relabelled, centre, level)
    assert moved["coverage"] == ball["coverage"]
    assert abs(moved["radius"] - ball["radius"]) <= 1e-12
    for side in ("vertical_upper", "vertical_lower", "horizontal"):
        keys = [naive_partition_key(b["labels"]) for b in moved[side]]
        assert len(set(keys)) == len(keys)
        assert keys == [naive_partition_key(b["labels"]) for b in ball[side]]
        for old, new in zip(ball[side], moved[side]):
            assert (new["n_blocks"], new["frequency"]) == \
                (old["n_blocks"], old["frequency"])
            assert abs(new["distance"] - old["distance"]) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 30).flatmap(lambda n: st.tuples(
    st.lists(st.integers(-3, 40), min_size=n, max_size=n),
    st.lists(st.integers(0, 5), min_size=n, max_size=n))))
def test_contingency_equals_per_side_unique(pair):
    a, b = pair
    table = _contingency(a, b)
    ref = naive_contingency(a, b)
    assert table.shape == ref.shape
    assert np.array_equal(table, ref)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, 12), min_size=n, max_size=n),
    st.lists(st.lists(st.integers(-5, 30), min_size=n, max_size=n), min_size=1,
             max_size=12))))
def test_vi_to_centre_equals_variation_of_information(case):
    # one-block rows and centres, and tables with 8 or more blocks a side,
    # where numpy sums pairwise in blocks of eight
    centre, rows = np.array(case[0]), np.array(case[1])
    rows[0] = 7
    dist = _vi_to_centre(centre, rows, _n_blocks(rows))
    assert dist.tolist() == [variation_of_information(centre, row) for row in rows]
