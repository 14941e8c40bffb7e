"""Retrieval and classification metrics against hand-computed oracles."""

from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from xmodal import (
    EmbeddingSet,
    EmptyGalleryError,
    EvalReport,
    InvalidConfigError,
    KTooLargeError,
    MissingPrototypeError,
    Modality,
    NoRelevantItemsError,
    RankedList,
    SpeciesMismatchError,
    TooFewItemsError,
    average_precision,
    chance_map_oracle,
    class_prototypes,
    knn_classify,
    map_from_ranked,
    map_retrieval,
    nearest_prototype,
    zero_shot_classify,
)
from xmodal import evaluation
from xmodal.evaluation import rank_by_score
from xmodal.rng import rng_for

from conftest import brute_force_scores, exact_sets
from test_acceptance import oracle_ap, oracle_knn_loo, oracle_map, oracle_pair_scores, oracle_rank


def eset(matrix, labels, modality=Modality.AUDIO) -> EmbeddingSet:
    return EmbeddingSet(np.asarray(matrix, dtype=np.float64), np.asarray(labels), modality)


class TestEvalReport:
    def test_value_bounds(self):
        with pytest.raises(InvalidConfigError):
            EvalReport(metric_name="m", value=1.5)
        with pytest.raises(InvalidConfigError):
            EvalReport(metric_name="m", value=-0.1)

    def test_per_query_mean_must_match(self):
        EvalReport(metric_name="m", value=0.5, per_query=(0.0, 1.0))
        with pytest.raises(InvalidConfigError, match="per-query mean"):
            EvalReport(metric_name="m", value=0.4, per_query=(0.0, 1.0))


class TestRankedList:
    def test_valid(self):
        r = RankedList(query_index=0, gallery_order=[2, 0, 1], scores=[0.9, 0.5, 0.5])
        assert r.gallery_order.dtype == np.int64

    def test_order_must_be_permutation(self):
        with pytest.raises(InvalidConfigError, match="permutation"):
            RankedList(query_index=0, gallery_order=[0, 0, 1], scores=[1.0, 0.5, 0.4])

    # Duplicates, entries past the end and negative entries are all drawn.
    @given(st.lists(st.integers(-2, 6), max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_accepts_exactly_the_permutations(self, order):
        is_permutation = sorted(order) == list(range(len(order)))
        try:
            RankedList(query_index=0, gallery_order=order, scores=np.zeros(len(order)))
        except InvalidConfigError:
            assert not is_permutation
        else:
            assert is_permutation

    def test_scores_must_be_sorted(self):
        with pytest.raises(InvalidConfigError, match="non-increasing"):
            RankedList(query_index=0, gallery_order=[0, 1], scores=[0.1, 0.9])

    def test_misaligned_rejected(self):
        with pytest.raises(InvalidConfigError):
            RankedList(query_index=0, gallery_order=[0, 1], scores=[0.9])


class TestRankByScore:
    def test_descending_with_index_ties(self):
        assert rank_by_score(np.array([0.1, 0.9, 0.5])).tolist() == [1, 2, 0]
        assert rank_by_score(np.array([0.5, 0.9, 0.5])).tolist() == [1, 0, 2]

    def test_all_equal_keeps_index_order(self):
        assert rank_by_score(np.zeros(4)).tolist() == [0, 1, 2, 3]


class TestAveragePrecision:
    def test_all_relevant(self):
        assert average_precision([1, 1, 1]) == 1.0

    def test_interleaved(self):
        # Hits at ranks 1 and 3: (1/1 + 2/3) / 2 = 5/6.
        assert average_precision([1, 0, 1]) == pytest.approx(5 / 6, abs=1e-15)

    def test_single_hit_at_bottom(self):
        assert average_precision([0, 0, 1]) == pytest.approx(1 / 3, abs=1e-15)

    def test_explicit_denominator(self):
        # Truncated list: 2 hits visible, 4 relevant overall.
        assert average_precision([1, 1], n_relevant=4) == pytest.approx(0.5, abs=1e-15)

    def test_no_relevant_items(self):
        with pytest.raises(NoRelevantItemsError):
            average_precision([0, 0, 0])

    def test_prefix_hits_before_misses_is_perfect(self):
        assert average_precision([1, 1, 0, 0]) == 1.0

    @given(st.lists(st.booleans(), min_size=1, max_size=30).filter(any))
    @settings(max_examples=60, deadline=None)
    def test_bounds_and_perfection(self, flags):
        ap = average_precision(flags)
        assert ap == oracle_ap(flags, sum(flags))
        assert 0.0 < ap <= 1.0
        n_rel = sum(flags)
        if flags[:n_rel] == [True] * n_rel:
            assert ap == 1.0


class TestMapRetrieval:
    def test_gallery_equals_queries_distinct_labels(self):
        # Each query's only relevant item is itself, ranked first.
        s = eset(np.eye(3), [0, 1, 2])
        report = map_retrieval(s, s)
        assert report.value == 1.0
        assert report.metric_name == "map"

    def test_duplicate_and_orthogonal(self):
        queries = eset([[1.0, 0.0]], [7])
        gallery = eset([[1.0, 0.0], [0.0, 1.0]], [7, 8])
        assert map_retrieval(queries, gallery).value == 1.0

    def test_hand_computed_two_queries(self):
        # Query 0 ranks gallery (g0, g1, g2); relevant g0, g2 -> AP (1 + 2/3)/2.
        # Query 1 ranks (g2, g1, g0); relevant g2, g0 -> same AP by symmetry.
        queries = eset([[1.0, 0.0], [0.0, 1.0]], [0, 0])
        gallery = eset([[1.0, 0.0], [0.7, 0.7], [0.0, 1.0]], [0, 1, 0])
        report = map_retrieval(queries, gallery)
        assert report.value == pytest.approx((1.0 + 2 / 3) / 2, abs=1e-12)
        assert report.per_query == report.per_query  # populated
        assert report.metadata["excluded_queries"] == 0

    def test_matches_bruteforce_pipeline(self):
        rng = rng_for(0, "map_oracle")
        queries = eset(rng.standard_normal((6, 5)), rng.integers(0, 3, size=6))
        gallery = eset(rng.standard_normal((10, 5)), rng.integers(0, 3, size=10))
        report = map_retrieval(queries, gallery)

        scores = brute_force_scores(queries.matrix, gallery.matrix)
        expected = []
        for i in range(6):
            order = sorted(range(10), key=lambda j: (-scores[i, j], j))
            rel = [int(gallery.labels[j]) == int(queries.labels[i]) for j in order]
            if not any(rel):
                continue
            expected.append(average_precision(rel))
        assert report.value == sum(expected) / len(expected)

    def test_truncation_at_k(self):
        queries = eset([[1.0, 0.0]], [0])
        gallery = eset([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]], [1, 0, 0])
        full = map_retrieval(queries, gallery)
        at1 = map_retrieval(queries, gallery, k=1)
        # Rank order: g0 (label 1), g1 (label 0), g2 (label 0).
        assert full.value == pytest.approx((1 / 2 + 2 / 3) / 2, abs=1e-12)
        assert at1.value == 0.0  # top-1 is irrelevant; denom = min(2, 1)
        assert at1.metric_name == "map@1"
        assert at1.k == 1

    def test_queries_without_matches_excluded(self):
        queries = eset([[1.0, 0.0], [0.0, 1.0]], [0, 99])
        gallery = eset([[1.0, 0.0]], [0])
        report = map_retrieval(queries, gallery)
        assert report.value == 1.0
        assert report.metadata["excluded_queries"] == 1
        assert report.metadata["n_queries"] == 2

    def test_all_queries_excluded(self):
        queries = eset([[1.0, 0.0]], [5])
        gallery = eset([[1.0, 0.0]], [0])
        with pytest.raises(NoRelevantItemsError):
            map_retrieval(queries, gallery)

    def test_empty_gallery(self):
        queries = eset([[1.0, 0.0]], [0])
        with pytest.raises(EmptyGalleryError):
            map_retrieval(queries, eset(np.zeros((0, 2)), []))

    def test_bad_k(self):
        s = eset(np.eye(2), [0, 1])
        with pytest.raises(InvalidConfigError):
            map_retrieval(s, s, k=0)

    def test_random_embeddings_near_chance(self):
        rng = rng_for(1, "chance_world")
        n_classes, n_per = 8, 6
        labels = np.repeat(np.arange(n_classes), n_per)
        queries = eset(rng.standard_normal((16, 10)), rng.integers(0, n_classes, size=16))
        gallery = eset(rng.standard_normal((n_classes * n_per, 10)), labels)
        report = map_retrieval(queries, gallery)
        chance = chance_map_oracle(n_per, n_classes, trials=400, seed=5)
        assert report.value <= 3 * chance

    def test_monotone_transform_invariance(self):
        # Ranking depends only on score order, so any common rescaling
        # of the query rows leaves mAP unchanged.
        rng = rng_for(2, "invariance")
        q = rng.standard_normal((5, 4))
        g = rng.standard_normal((9, 4))
        ql = rng.integers(0, 3, size=5)
        gl = rng.integers(0, 3, size=9)
        base = map_retrieval(eset(q, ql), eset(g, gl)).value
        scaled = map_retrieval(eset(q * 7.5, ql), eset(g, gl)).value
        assert scaled == base


class TestMapFromRanked:
    def test_matches_map_retrieval(self):
        rng = rng_for(3, "ranked")
        q = eset(rng.standard_normal((4, 3)), [0, 1, 0, 1])
        g = eset(rng.standard_normal((6, 3)), [0, 0, 1, 1, 0, 1])
        scores = brute_force_scores(q.matrix, g.matrix)
        lists = []
        for i in range(4):
            order = rank_by_score(scores[i])
            lists.append(RankedList(query_index=i, gallery_order=order, scores=scores[i][order]))
        direct = map_retrieval(q, g)
        via_ranked = map_from_ranked(lists, q.labels, g.labels)
        assert via_ranked.value == direct.value

    def test_empty_gallery_labels(self):
        with pytest.raises(EmptyGalleryError):
            map_from_ranked([], np.array([0]), np.array([], dtype=np.int64))

    def test_list_must_rank_the_whole_gallery(self):
        partial = RankedList(query_index=0, gallery_order=[1, 0], scores=[0.9, 0.1])
        with pytest.raises(InvalidConfigError, match="whole gallery"):
            map_from_ranked([partial], np.array([0]), np.array([0, 1, 0]))


class TestChanceMapOracle:
    def test_single_class_is_one(self):
        assert chance_map_oracle(n_per_class=4, n_classes=1, trials=10) == 1.0

    def test_one_relevant_in_two(self):
        # One relevant item among 2: AP is 1 or 1/2 with equal odds,
        # so the Monte Carlo mean sits near 0.75.
        value = chance_map_oracle(n_per_class=1, n_classes=2, trials=4000, seed=1)
        assert value == pytest.approx(0.75, abs=0.02)

    def test_deterministic_per_seed(self):
        a = chance_map_oracle(3, 5, trials=50, seed=9)
        b = chance_map_oracle(3, 5, trials=50, seed=9)
        c = chance_map_oracle(3, 5, trials=50, seed=10)
        assert a == b
        assert a != c

    def test_default_world_shape_is_low(self):
        value = chance_map_oracle(n_per_class=10, n_classes=48, trials=200, seed=7)
        assert 0.0 < value < 0.2

    def test_validation(self):
        with pytest.raises(InvalidConfigError):
            chance_map_oracle(0, 3)
        with pytest.raises(InvalidConfigError):
            chance_map_oracle(3, 3, trials=0)
        with pytest.raises(InvalidConfigError):
            chance_map_oracle(3, 3, k=0)

    def test_truncated_variant(self):
        value = chance_map_oracle(n_per_class=5, n_classes=10, k=3, trials=100, seed=2)
        assert 0.0 <= value <= 1.0


class TestKnnClassify:
    def test_duplicate_neighbor_wins_k1(self):
        ref = eset([[1.0, 0.0], [0.0, 1.0]], [3, 4])
        q = eset([[0.99, 0.01]], [3])
        report = knn_classify(q, ref, k=1)
        assert report.value == 1.0
        assert report.metric_name == "knn@1_accuracy"
        assert report.metadata["exclude_self"] is False

    def test_majority_vote(self):
        # Neighbors at k=3: two of label A, one of label B -> A.
        ref = eset([[1.0, 0.0], [0.99, 0.1], [0.9, 0.2]], [5, 5, 6])
        q = eset([[1.0, 0.05]], [5])
        assert knn_classify(q, ref, k=3).value == 1.0

    def test_tie_goes_to_best_ranked_class(self):
        # k=2 with one vote each: the class of the nearest neighbor wins.
        ref = eset([[1.0, 0.0], [0.8, 0.6]], [1, 2])
        q = eset([[0.99, 0.05]], [2])
        assert knn_classify(q, ref, k=2).value == 0.0  # nearest is label 1

    def test_self_exclusion_same_object(self):
        # With self-matches allowed k=1 would be trivially perfect;
        # exclusion forces the true nearest other item.
        s = eset([[1.0, 0.0], [0.95, 0.31], [0.0, 1.0]], [0, 1, 2])
        report = knn_classify(s, s, k=1)
        assert report.metadata["exclude_self"] is True
        assert report.value == 0.0  # every nearest other item has a different label

    def test_self_exclusion_equal_copy(self):
        s = eset([[1.0, 0.0], [0.9, 0.43], [0.0, 1.0], [0.1, 0.99]], [0, 0, 1, 1])
        copy = eset(s.matrix.copy(), s.labels.copy())
        a = knn_classify(s, s, k=1)
        b = knn_classify(s, copy, k=1)
        assert b.metadata["exclude_self"] is True
        assert a.value == b.value == 1.0

    def test_k_too_large(self):
        s = eset(np.eye(3), [0, 1, 2])
        with pytest.raises(KTooLargeError, match="k=3 but only 2 usable"):
            knn_classify(s, s, k=3)
        knn_classify(s, s, k=2)  # boundary is fine

    def test_k_must_be_positive(self):
        s = eset(np.eye(2), [0, 1])
        with pytest.raises(InvalidConfigError):
            knn_classify(s, s, k=0)

    def test_empty_reference(self):
        q = eset([[1.0, 0.0]], [0])
        with pytest.raises(EmptyGalleryError):
            knn_classify(q, eset(np.zeros((0, 2)), []), k=1)

    def test_matches_bruteforce_predictions(self):
        rng = rng_for(4, "knn_oracle")
        ref = eset(rng.standard_normal((12, 6)), rng.integers(0, 3, size=12))
        q = eset(rng.standard_normal((7, 6)), rng.integers(0, 3, size=7))
        k = 3
        report = knn_classify(q, ref, k=k)
        scores = brute_force_scores(q.matrix, ref.matrix)
        correct = []
        for i in range(7):
            order = sorted(range(12), key=lambda j: (-scores[i, j], j))[:k]
            neigh = [int(ref.labels[j]) for j in order]
            best = max(set(neigh), key=neigh.count)
            tied = {l for l in set(neigh) if neigh.count(l) == neigh.count(best)}
            pred = next(l for l in neigh if l in tied)
            correct.append(float(pred == int(q.labels[i])))
        assert report.value == sum(correct) / len(correct)
        assert report.per_query == tuple(correct)

    def test_rescaling_rows_does_not_change_result(self):
        rng = rng_for(5, "knn_scale")
        ref = eset(rng.standard_normal((10, 4)), rng.integers(0, 2, size=10))
        q_rows = rng.standard_normal((5, 4))
        ql = rng.integers(0, 2, size=5)
        base = knn_classify(eset(q_rows, ql), ref, k=3)
        scaled = knn_classify(eset(q_rows * 100.0, ql), ref, k=3)
        assert scaled.value == base.value


class TestPrototypes:
    def test_centroids(self):
        s = eset([[1.0, 0.0], [3.0, 0.0], [0.0, 2.0]], [4, 4, 9])
        protos = class_prototypes(s)
        assert np.array_equal(protos.labels, [4, 9])
        assert np.array_equal(protos.matrix, [[2.0, 0.0], [0.0, 2.0]])
        assert not protos.normalized

    def test_labels_sorted_even_if_input_unsorted(self):
        s = eset([[0.0, 1.0], [1.0, 0.0]], [9, 2])
        protos = class_prototypes(s)
        assert np.array_equal(protos.labels, [2, 9])
        assert np.array_equal(protos.matrix, [[1.0, 0.0], [0.0, 1.0]])

    def test_empty_set(self):
        with pytest.raises(TooFewItemsError):
            class_prototypes(eset(np.zeros((0, 3)), []))

    def test_nearest_prototype_predictions(self):
        protos = eset([[1.0, 0.0], [0.0, 1.0]], [10, 20])
        q = eset([[0.9, 0.1], [0.1, 0.9]], [0, 0])
        predicted, confidence = nearest_prototype(q, protos)
        assert predicted.tolist() == [10, 20]
        assert np.all(confidence > 0.9)

    def test_nearest_prototype_tie_lowest_label(self):
        protos = eset([[1.0, 0.0], [1.0, 0.0]], [30, 5])
        predicted, _ = nearest_prototype(eset([[1.0, 0.0]], [0]), protos)
        assert predicted.tolist() == [5]

    def test_duplicate_prototype_labels_rejected(self):
        protos = eset([[1.0, 0.0], [0.0, 1.0]], [3, 3])
        with pytest.raises(SpeciesMismatchError, match="unique"):
            nearest_prototype(eset([[1.0, 0.0]], [0]), protos)


class TestZeroShot:
    def test_perfect_separation(self):
        protos = eset([[1.0, 0.0], [0.0, 1.0]], [0, 1])
        q = eset([[0.9, 0.1], [0.2, 0.8], [1.0, 0.01]], [0, 1, 0])
        report = zero_shot_classify(q, protos)
        assert report.value == 1.0
        assert report.metric_name == "zero_shot_accuracy"
        assert report.metadata["n_prototypes"] == 2

    def test_partial_accuracy(self):
        protos = eset([[1.0, 0.0], [0.0, 1.0]], [0, 1])
        q = eset([[0.9, 0.1], [0.9, 0.1]], [0, 1])
        assert zero_shot_classify(q, protos).value == 0.5

    def test_missing_prototype(self):
        protos = eset([[1.0, 0.0]], [0])
        q = eset([[1.0, 0.0]], [3])
        with pytest.raises(MissingPrototypeError, match=r"\[3\]"):
            zero_shot_classify(q, protos)

    def test_extra_prototypes_allowed(self):
        protos = eset([[1.0, 0.0], [0.0, 1.0]], [0, 99])
        q = eset([[0.9, 0.05]], [0])
        assert zero_shot_classify(q, protos).value == 1.0


# -- batched evaluation against the acceptance gate's naive oracles -------------
#
# Rows come from an exact palette (see conftest.exact_sets), so the naive
# per-pair scores equal the library's BLAS scores bit for bit and every
# difference is the batched code's. Labels go negative, query labels reach
# beyond the gallery's (queries with no relevant item), and the block
# budget is patched down to a few cells so row blocks split the queries.

QUERY_LABELS = st.integers(-4, 4)
GALLERY_LABELS = st.integers(-3, 3)
BLOCK_CELLS = st.integers(1, 40)


def oracle_map_at(queries, gallery, k):
    """oracle_map truncated at k, normalized by min(total relevant, k)."""
    scores = oracle_pair_scores(queries.matrix, gallery.matrix)
    per_query = []
    for i in range(queries.n_items):
        label = int(queries.labels[i])
        n_rel = int(np.sum(gallery.labels == label))
        if n_rel == 0:
            continue
        flags = [int(gallery.labels[j]) == label for j in oracle_rank(scores[i])[:k]]
        per_query.append(oracle_ap(flags, min(n_rel, k)))
    return sum(per_query) / len(per_query), tuple(per_query)


def oracle_knn(queries, reference, k):
    """oracle_knn_loo for a separate reference set: nothing is excluded."""
    scores = oracle_pair_scores(queries.matrix, reference.matrix)
    per_query = []
    for i in range(queries.n_items):
        neighbor_labels = [int(reference.labels[j]) for j in oracle_rank(scores[i])[:k]]
        votes = Counter(neighbor_labels)
        top = max(votes.values())
        tied = {label for label, count in votes.items() if count == top}
        prediction = next(label for label in neighbor_labels if label in tied)
        per_query.append(float(prediction == int(queries.labels[i])))
    return sum(per_query) / len(per_query), tuple(per_query)


class TestBatchedMatchesNaiveOracles:
    @given(
        st.lists(
            st.lists(st.sampled_from([1.0, 0.5, 0.0, -0.0, -0.5, -np.inf]), min_size=5, max_size=5),
            min_size=1,
            max_size=9,
        ),
        st.integers(1, 5),
        BLOCK_CELLS,
    )
    @settings(max_examples=100, deadline=None)
    def test_ranking_and_top_k(self, rows, k, cells):
        scores = np.array(rows)
        expected = [oracle_rank(row) for row in rows]
        with mock.patch.object(evaluation, "_BLOCK_CELLS", cells):
            assert rank_by_score(scores).tolist() == expected
            assert evaluation._top_k(scores, k).tolist() == [order[:k] for order in expected]

    @given(
        st.lists(
            st.lists(st.sampled_from([1.0, 0.0, -0.0, -1.0, -np.inf, np.nan]), min_size=4, max_size=4),
            min_size=1,
            max_size=6,
        ),
        st.integers(1, 4),
    )
    @settings(max_examples=100, deadline=None)
    def test_top_k_ranks_nan_last_like_the_full_sort(self, rows, k):
        # Python's sort has no order for NaN keys, so the full stable
        # argsort is the reference here.
        scores = np.array(rows)
        assert evaluation._top_k(scores, k).tolist() == rank_by_score(scores)[:, :k].tolist()

    @given(st.data(), BLOCK_CELLS)
    @settings(max_examples=100, deadline=None)
    def test_map_retrieval(self, data, cells):
        queries = data.draw(exact_sets(QUERY_LABELS))
        gallery = data.draw(exact_sets(GALLERY_LABELS))
        k = data.draw(st.none() | st.integers(1, gallery.n_items + 3))
        if not np.isin(queries.labels, gallery.labels).any():
            with pytest.raises(NoRelevantItemsError):
                map_retrieval(queries, gallery, k=k)
            return
        value, per_query = oracle_map(queries, gallery) if k is None else oracle_map_at(queries, gallery, k)
        with mock.patch.object(evaluation, "_BLOCK_CELLS", cells):
            report = map_retrieval(queries, gallery, k=k)
        assert report.value == value and report.per_query == per_query
        assert report.metadata["excluded_queries"] == queries.n_items - len(per_query)

    @given(st.data(), BLOCK_CELLS)
    @settings(max_examples=100, deadline=None)
    def test_knn_self_excluded(self, data, cells):
        items = data.draw(exact_sets(GALLERY_LABELS, min_size=2))
        k = data.draw(st.integers(1, items.n_items - 1))
        with mock.patch.object(evaluation, "_BLOCK_CELLS", cells):
            report = knn_classify(items, items, k)
        assert (report.value, report.per_query) == oracle_knn_loo(items, k)

    @given(st.data(), BLOCK_CELLS)
    @settings(max_examples=100, deadline=None)
    def test_knn_cross_set(self, data, cells):
        queries = data.draw(exact_sets(QUERY_LABELS))
        reference = data.draw(exact_sets(GALLERY_LABELS))
        assume(not evaluation._same_set(queries, reference))
        k = data.draw(st.integers(1, reference.n_items))
        with mock.patch.object(evaluation, "_BLOCK_CELLS", cells):
            report = knn_classify(queries, reference, k)
        assert (report.value, report.per_query) == oracle_knn(queries, reference, k)

    @given(st.integers(1, 4), st.integers(1, 4), st.none() | st.integers(1, 20), st.integers(1, 12), BLOCK_CELLS)
    @settings(max_examples=50, deadline=None)
    def test_chance_map(self, n_per_class, n_classes, k, trials, cells):
        labels = np.repeat(np.arange(n_classes), n_per_class)
        denom = n_per_class if k is None else min(n_per_class, k)
        values = [
            oracle_ap(list(labels[rng_for(3, "chance", t).permutation(labels.size)][:k] == 0), denom)
            for t in range(trials)
        ]
        with mock.patch.object(evaluation, "_BLOCK_CELLS", cells):
            value = chance_map_oracle(n_per_class, n_classes, k=k, trials=trials, seed=3)
        assert value == sum(values) / len(values)
