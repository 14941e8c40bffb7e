"""Retrieval and classification metrics against hand-computed oracles."""

import math
import tracemalloc
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
    ZeroVectorError,
    chance_map_oracle,
    class_prototypes,
    knn_classify,
    map_from_ranked,
    map_retrieval,
    nearest_prototype,
    zero_shot_classify,
)
from xmodal import evaluation
from xmodal.embeddings import _cosine_rows, similarity_matrix
from xmodal.evaluation import rank_by_score
from xmodal.rng import rng_for

from conftest import EXACT_PALETTE, brute_force_scores, exact_sets
from test_acceptance import oracle_ap, oracle_knn_loo, oracle_map, oracle_pair_scores, oracle_rank


def eset(matrix, labels, modality=Modality.AUDIO) -> EmbeddingSet:
    return EmbeddingSet(np.asarray(matrix, dtype=np.float64), np.asarray(labels), modality)


# Labels go negative, query labels reach beyond the gallery's (queries with
# no relevant item), and the block budget is patched down to a few cells so
# row blocks split the queries.
QUERY_LABELS = st.integers(-4, 4)
GALLERY_LABELS = st.integers(-3, 3)
BLOCK_CELLS = st.integers(1, 40)


class TestEvalReport:
    def test_value_bounds(self):
        with pytest.raises(InvalidConfigError, match=r"\[0, 1\]"):
            EvalReport(per_query=(1.5,))
        with pytest.raises(InvalidConfigError, match=r"\[0, 1\]"):
            EvalReport(per_query=(-0.1,))
        with pytest.raises(InvalidConfigError, match=r"\[0, 1\]"):
            EvalReport(per_query=(float("nan"),))

    def test_empty_per_query_raises(self):
        with pytest.raises(InvalidConfigError, match="at least one per-query value"):
            EvalReport(per_query=())

    def test_value_is_the_sequential_mean(self):
        # The left-to-right sum / len, bit for bit; np.mean and math.fsum
        # both round to 0.1 here.
        report = EvalReport(per_query=(0.1,) * 10)
        assert report.value == 0.09999999999999999
        assert float(np.mean((0.1,) * 10)) == math.fsum((0.1,) * 10) / 10 == 0.1


def scores_inducing(orders):
    """Float score rows whose descending order is ``orders``, row by row."""
    orders = np.asarray(orders, dtype=np.int64).reshape(len(orders), -1)
    scores = np.empty(orders.shape)
    np.put_along_axis(scores, orders, np.arange(orders.shape[1], 0, -1, dtype=np.float64), axis=1)
    return scores


def one_ranking(order):
    """A record of one query whose scores rank the gallery in ``order``."""
    return RankedList(row_of=[0], scores=scores_inducing([order]), gallery_order=np.arange(len(order)))


class TestRankedList:
    def test_valid(self):
        r = RankedList(row_of=[1, 0, 1], scores=[[0.9, 0.5, 0.5], [1.0, 0.0, 0.0]], gallery_order=[2, 0, 1])
        assert r.gallery_order.dtype == np.int64 and r.gallery_order.tolist() == [2, 0, 1]
        assert r.row_of.dtype == np.int64 and r.row_of.tolist() == [1, 0, 1]
        assert r.scores.dtype == np.float64 and r.scores.shape == (2, 3)
        # Signed integer scores above the type's least value, and float32
        # scores, keep their dtype.
        for scores in (np.int8([[-127, 0, 127]]), np.int16([[-32767, 0, 1]]), np.float32([[-1.0, 0.0, 1.0]])):
            assert RankedList([0], scores, [0, 1, 2]).scores.dtype == scores.dtype

    def test_order_must_be_permutation(self):
        with pytest.raises(InvalidConfigError, match="permutation of the 3 columns"):
            RankedList(row_of=[0], scores=np.zeros((1, 3)), gallery_order=[0, 0, 1])

    # Duplicates, entries past the end and negative entries are all drawn,
    # for a record of two score rows.
    @given(st.lists(st.integers(-2, 6), max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_accepts_exactly_the_permutations(self, order):
        is_permutation = sorted(order) == list(range(len(order)))
        try:
            RankedList(row_of=[1], scores=np.zeros((2, len(order))), gallery_order=order)
        except InvalidConfigError:
            assert not is_permutation
        else:
            assert is_permutation

    @pytest.mark.parametrize(
        "scores",
        [
            np.array([[2, 1]], dtype=np.uint8),
            np.array([[2, 1]], dtype=np.uint64),
            np.array([[True, False]]),
            np.array([["b", "a"]]),
            np.array([[1 + 0j, 0j]]),
            np.array([[0.9, 0.1]], dtype=object),
        ],
        ids=["uint8", "uint64", "bool", "str", "complex", "object"],
    )
    def test_scores_of_other_kinds_rejected(self, scores):
        # An unsigned row wraps under negation, so it would rank backwards.
        with pytest.raises(InvalidConfigError, match="float or signed integer"):
            RankedList(row_of=[0], scores=scores, gallery_order=[0, 1])

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int64])
    def test_least_integer_score_rejected(self, dtype):
        # -(-128) is -128 in int8: that score would rank first, not last.
        least = np.iinfo(dtype).min
        with pytest.raises(InvalidConfigError, match=f"above {least}"):
            RankedList(row_of=[0], scores=np.array([[0, least]], dtype=dtype), gallery_order=[0, 1])

    def test_misaligned_rejected(self):
        # Scores that are not 2-d, and an order one entry short, one too
        # many or 2-d against two score columns.
        for scores in ([0.9, 0.1], [[[0.9, 0.1]]], 0.5):
            with pytest.raises(InvalidConfigError, match="scores must be 2-d"):
                RankedList(row_of=[0], scores=scores, gallery_order=[0, 1])
        for order in ([0], [0, 1, 2], [[0, 1]]):
            with pytest.raises(InvalidConfigError, match="permutation of the 2 columns"):
                RankedList(row_of=[0], scores=[[0.9, 0.1], [0.1, 0.9]], gallery_order=order)

    def test_negative_query_index_rejected(self):
        # Query 1 names row -1: every row must be a score row of the record.
        with pytest.raises(InvalidConfigError, match=r"row_of must lie in \[0, 2\)"):
            RankedList(row_of=[1, -1], scores=[[0.9, 0.1], [0.1, 0.9]], gallery_order=[0, 1])

    def test_row_past_the_last_ranking_rejected(self):
        with pytest.raises(InvalidConfigError, match=r"row_of must lie in \[0, 1\)"):
            RankedList(row_of=[0, 1], scores=[[0.9, 0.1]], gallery_order=[0, 1])

    def test_row_of_must_be_flat(self):
        with pytest.raises(InvalidConfigError, match="row_of must be 1-d"):
            RankedList(row_of=[[0, 0]], scores=[[0.9, 0.1]], gallery_order=[0, 1])


class TestRankByScore:
    def test_descending_with_index_ties(self):
        assert rank_by_score(np.array([0.1, 0.9, 0.5])).tolist() == [1, 2, 0]
        assert rank_by_score(np.array([0.5, 0.9, 0.5])).tolist() == [1, 0, 2]

    def test_all_equal_keeps_index_order(self):
        assert rank_by_score(np.zeros(4)).tolist() == [0, 1, 2, 3]

    def test_tied_infinities_and_nans_keep_index_order(self):
        # inf - inf is NaN, so a tie test by differences would miss the first row.
        scores = np.array([[2.0, 0.5, np.inf, np.inf], [np.nan, 1.0, np.nan, 0.5]])
        assert rank_by_score(scores).tolist() == [[2, 3, 0, 1], [1, 3, 0, 2]]
        # NaN at every even index of a row long enough for the default sort kind
        # to reorder them: the NaNs still come last, in index order.
        row = np.where(np.arange(17) % 2 == 0, np.nan, np.arange(17.0))
        assert rank_by_score(row).tolist() == list(range(15, 0, -2)) + list(range(0, 17, 2))

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_stable_argsort(self, data):
        # The stable order is the acceptance oracle's Python sort by
        # (-score, index). Small palettes make ties common: +-0.0 and pairs
        # of +-inf. NaN does not order in a Python sort, so it is left to
        # test_tied_infinities_and_nans_keep_index_order.
        palette = st.sampled_from([2.0, 0.5, 0.0, -0.0, -0.5, np.inf, -np.inf])
        value = st.one_of(palette, st.floats(allow_nan=False))
        width = data.draw(st.integers(0, 24), label="width")
        row = st.lists(value, min_size=width, max_size=width)
        if data.draw(st.booleans(), label="one_dimensional"):
            scores = np.array(data.draw(row), dtype=np.float64)
            expected = oracle_rank(scores)
        else:
            n_rows = data.draw(st.integers(0, 8), label="rows")
            scores = np.array([data.draw(row) for _ in range(n_rows)], dtype=np.float64)
            scores = scores.reshape(n_rows, width)
            expected = [oracle_rank(scores_row) for scores_row in scores]
        order = rank_by_score(scores)
        assert order.dtype == np.intp
        assert order.shape == scores.shape
        assert order.tolist() == expected

    # Integer rows are negated and sorted in their own dtype. Small values
    # make ties common; widths past 16 take NumPy's unstable default sort
    # off its small-array path, so only a stable sort keeps index order.
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_integer_rows_rank_as_their_float_cast(self, data):
        dtype = data.draw(st.sampled_from([np.int8, np.int16]), label="dtype")
        info = np.iinfo(dtype)
        value = st.integers(-3, 3) | st.integers(info.min + 1, info.max)
        width = data.draw(st.integers(0, 40), label="width")
        n_rows = data.draw(st.integers(1, 4), label="rows")
        rows = [data.draw(st.lists(value, min_size=width, max_size=width)) for _ in range(n_rows)]
        scores = np.array(rows, dtype=dtype).reshape(n_rows, width)
        assert rank_by_score(scores).tolist() == rank_by_score(scores.astype(np.float64)).tolist()


def assert_ranks_invert_rank_by_score(scores, data):
    """_search_ranks at drawn columns (repeats allowed) against the inverse
    permutation of rank_by_score, row by row."""
    n_rows, width = scores.shape
    n_columns = data.draw(st.integers(1, 8), label="columns")
    column = st.integers(0, width - 1)
    columns = np.array(
        [data.draw(st.lists(column, min_size=n_columns, max_size=n_columns)) for _ in range(n_rows)]
    ).reshape(n_rows, n_columns)
    inverse = np.argsort(rank_by_score(scores), axis=1) + 1
    ranks = evaluation._search_ranks(scores, columns)
    assert np.array_equal(ranks, np.take_along_axis(inverse, columns, axis=1))


class TestSearchRanks:
    # Widths 1-70 cross every power of two up to 64, so every step count of
    # the binary search is drawn. Rows of distinct non-NaN scores never fall
    # back to the full ranking, so the search alone answers them.
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_distinct_rows_are_searched(self, data):
        width = data.draw(st.integers(1, 70), label="width")
        row = st.lists(st.floats(allow_nan=False), min_size=width, max_size=width, unique=True)
        n_rows = data.draw(st.integers(1, 4), label="rows")
        scores = np.array([data.draw(row) for _ in range(n_rows)])
        assert not evaluation._tied(np.sort(-scores, axis=1)).any()
        assert_ranks_invert_rank_by_score(scores, data)

    # Palette rows of +-0.0, +-inf and NaN share blocks with distinct rows:
    # the tied and NaN rows are ranked in full and merged back.
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_tied_and_nan_rows_fall_back(self, data):
        width = data.draw(st.integers(1, 24), label="width")
        value = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan])
        palette = st.lists(value, min_size=width, max_size=width)
        distinct = st.lists(st.floats(allow_nan=False), min_size=width, max_size=width, unique=True)
        rows = data.draw(st.lists(palette | distinct, min_size=1, max_size=6), label="rows")
        assert_ranks_invert_rank_by_score(np.array(rows), data)

    def test_nan_rows_without_equal_pairs_rank_nan_last(self):
        # NaN == NaN is False, so no sorted pair of these rows compares
        # equal: only the NaN test sends them to the full ranking.
        scores = np.array([[np.nan, 0.0, np.inf], [np.nan, np.nan, 1.0], [np.nan, -np.inf, np.nan]])
        columns = np.tile(np.arange(3), (3, 1))
        assert evaluation._search_ranks(scores, columns).tolist() == [[3, 2, 1], [2, 3, 1], [2, 1, 3]]


def ap_of_flags(flags, k=None) -> float:
    """AP of one query whose gallery, in ranked order, has these relevance
    flags: ``map_from_ranked`` over one ranking, so the AP core at its input."""
    labels = np.asarray(flags, dtype=np.int64)
    return map_from_ranked(one_ranking(np.arange(labels.size)), [1], labels, k=k).value


class TestAveragePrecision:
    def test_all_relevant(self):
        assert ap_of_flags([1, 1, 1]) == 1.0

    def test_interleaved(self):
        # Hits at ranks 1 and 3: (1/1 + 2/3) / 2 = 5/6.
        assert ap_of_flags([1, 0, 1]) == pytest.approx(5 / 6, abs=1e-15)

    def test_single_hit_at_bottom(self):
        assert ap_of_flags([0, 0, 1]) == pytest.approx(1 / 3, abs=1e-15)

    def test_explicit_denominator(self):
        # Cut at k=4: 2 hits within it, 4 relevant overall, so (1 + 1) / 4.
        assert ap_of_flags([1, 1, 0, 0, 1, 1], k=4) == pytest.approx(0.5, abs=1e-15)

    def test_no_relevant_items(self):
        with pytest.raises(NoRelevantItemsError):
            ap_of_flags([0, 0, 0])

    def test_prefix_hits_before_misses_is_perfect(self):
        assert ap_of_flags([1, 1, 0, 0]) == 1.0

    @given(st.lists(st.booleans(), min_size=1, max_size=30).filter(any))
    @settings(max_examples=60, deadline=None)
    def test_bounds_and_perfection(self, flags):
        ap = ap_of_flags(flags)
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
            expected.append(oracle_ap(rel, sum(rel)))
        assert report.value == sum(expected) / len(expected)

    def test_truncation_at_k(self):
        queries = eset([[1.0, 0.0]], [0])
        gallery = eset([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]], [1, 0, 0])
        full = map_retrieval(queries, gallery)
        at1 = map_retrieval(queries, gallery, k=1)
        # Rank order: g0 (label 1), g1 (label 0), g2 (label 0).
        assert full.value == pytest.approx((1 / 2 + 2 / 3) / 2, abs=1e-12)
        assert at1.value == 0.0  # top-1 is irrelevant; denom = min(2, 1)
        assert at1.k == 1

    @pytest.mark.parametrize("k, ap", [(None, 0.5), (1, 0.0), (2, 0.5), (3, 0.5), (4, 0.5), (5, 0.5)])
    def test_smaller_class_with_k_past_the_gallery(self, k, ap):
        # Ranked g0, g2, g1; the query's one relevant item g2 sits at rank 2.
        # Its class is smaller than the other, so its rank row is padded,
        # and no padded slot may count as a hit however large k is.
        queries = eset([[1.0, 0.0]], [1])
        gallery = eset([[1.0, 0.0], [0.0, 1.0], [0.8, 0.6]], [0, 0, 1])
        assert map_retrieval(queries, gallery, k=k).per_query == (ap,)

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


def one_query_at_a_time(queries, gallery, k=None):
    """map_retrieval's per-query values, each query scored on its own."""
    per_query = []
    for i in range(queries.n_items):
        try:
            per_query.extend(map_retrieval(queries.take([i]), gallery, k=k).per_query)
        except NoRelevantItemsError:
            pass
    return tuple(per_query)


def assert_matches_one_query_at_a_time(queries, gallery, k=None):
    per_query = one_query_at_a_time(queries, gallery, k)
    if not per_query:
        with pytest.raises(NoRelevantItemsError):
            map_retrieval(queries, gallery, k=k)
        return
    report = map_retrieval(queries, gallery, k=k)
    assert report.per_query == per_query
    assert report.value == sum(per_query) / len(per_query)
    assert report.metadata == {"excluded_queries": queries.n_items - len(per_query), "n_queries": queries.n_items}


class TestRepeatedQueryRows:
    GALLERY = eset([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 0.5], [0.5, -1.0]], [0, 1, 0, 2, 1])

    @pytest.mark.parametrize("cells", [1, 7, evaluation._BLOCK_CELLS])
    @pytest.mark.parametrize("k", [None, 2])
    def test_matches_one_query_at_a_time(self, cells, k):
        # Row a under labels 0 and 1; row b and b0, which differ only in
        # the sign of a zero; label 9, absent from the gallery, between
        # copies of a under label 0.
        a, b, b0 = [1.0, 0.25], [0.0, 2.0], [-0.0, 2.0]
        queries = eset([a, a, b, b0, a, a, b, a, b0], [0, 1, 1, 1, 9, 0, 1, 0, 1])
        with mock.patch.object(evaluation, "_BLOCK_CELLS", cells):
            assert_matches_one_query_at_a_time(queries, self.GALLERY, k)

    def test_zero_row_named_by_its_query_index(self):
        queries = eset([[1.0, 0.0], [1.0, 0.0], [0.0, 0.0]], [0, 0, 1])
        with pytest.raises(ZeroVectorError, match="query row 2 is all zeros"):
            map_retrieval(queries, self.GALLERY)

    @given(st.data(), BLOCK_CELLS)
    @settings(max_examples=100, deadline=None)
    def test_few_distinct_rows(self, data, cells):
        # Palette rows come in pairs that differ only in the sign of a zero.
        gallery = data.draw(exact_sets(GALLERY_LABELS))
        palette_rows = data.draw(st.lists(st.integers(0, len(EXACT_PALETTE) - 1), min_size=1, max_size=3))
        n = data.draw(st.integers(2, 12))
        rows = data.draw(st.lists(st.sampled_from(palette_rows), min_size=n, max_size=n))
        labels = data.draw(st.lists(QUERY_LABELS, min_size=n, max_size=n))
        k = data.draw(st.none() | st.integers(1, gallery.n_items + 3))
        with mock.patch.object(evaluation, "_BLOCK_CELLS", cells):
            assert_matches_one_query_at_a_time(eset(EXACT_PALETTE[rows], labels), gallery, k)


class TestMapFromRanked:
    # Gaussian rows give distinct scores, so map_retrieval takes the rank
    # search and map_from_ranked the inverse of the full order. Classes of
    # unequal size leave padded slots, and k reaches past the gallery. The
    # record's columns follow a drawn gallery order.
    @given(st.data(), BLOCK_CELLS)
    @settings(max_examples=100, deadline=None)
    def test_matches_map_retrieval(self, data, cells):
        n_queries = data.draw(st.integers(1, 8), label="queries")
        n_gallery = data.draw(st.integers(1, 12), label="gallery")
        rng = rng_for(data.draw(st.integers(0, 2**16), label="seed"), "ranked")
        query_labels = data.draw(st.lists(QUERY_LABELS, min_size=n_queries, max_size=n_queries))
        gallery_labels = data.draw(st.lists(GALLERY_LABELS, min_size=n_gallery, max_size=n_gallery))
        q = eset(rng.standard_normal((n_queries, 3)), query_labels)
        g = eset(rng.standard_normal((n_gallery, 3)), gallery_labels)
        k = data.draw(st.none() | st.integers(1, n_gallery + 3), label="k")
        scores = similarity_matrix(q, g)
        gallery_order = np.array(data.draw(st.permutations(range(n_gallery)), label="gallery order"))
        ranked = RankedList(np.arange(n_queries), scores[:, gallery_order], gallery_order)
        with mock.patch.object(evaluation, "_BLOCK_CELLS", cells):
            if not np.isin(q.labels, g.labels).any():
                with pytest.raises(NoRelevantItemsError):
                    map_retrieval(q, g, k=k)
                with pytest.raises(NoRelevantItemsError):
                    map_from_ranked(ranked, q.labels, g.labels, k=k)
                return
            direct = map_retrieval(q, g, k=k)
            via_ranked = map_from_ranked(ranked, q.labels, g.labels, k=k)
        assert via_ranked == direct
        assert (direct.value, direct.per_query) == oracle_map_at(q, g, k, scores=scores.tolist())

    # Queries share a few drawn rankings, each induced by a score row. One
    # row per query and one row per distinct ranking, the shared rows in a
    # drawn order, must score every query the same, in query order.
    @given(st.data(), BLOCK_CELLS)
    @settings(max_examples=100, deadline=None)
    def test_shared_rankings_match_one_list_per_query(self, data, cells):
        n_queries = data.draw(st.integers(1, 10), label="queries")
        n_gallery = data.draw(st.integers(1, 12), label="gallery")
        orders = np.array(
            data.draw(st.lists(st.permutations(range(n_gallery)), min_size=1, max_size=4), label="orders")
        ).reshape(-1, n_gallery)
        ranking_of = np.array(
            data.draw(st.lists(st.integers(0, len(orders) - 1), min_size=n_queries, max_size=n_queries))
        )
        query_labels = np.array(data.draw(st.lists(QUERY_LABELS, min_size=n_queries, max_size=n_queries)))
        gallery_labels = np.array(data.draw(st.lists(GALLERY_LABELS, min_size=n_gallery, max_size=n_gallery)))
        k = data.draw(st.none() | st.integers(1, n_gallery + 3), label="k")
        scores = scores_inducing(orders)

        def ranked(row_of, rows):
            return RankedList(row_of, scores[rows], np.arange(n_gallery))

        per_query = ranked(np.arange(n_queries), ranking_of)
        used = np.unique(ranking_of)
        # shared_rows[j]: the ranking held in row j of the shared record.
        shared_rows = np.array(data.draw(st.permutations(used.tolist()), label="shared row order"))
        row_of_ranking = np.empty(len(orders), dtype=np.int64)
        row_of_ranking[shared_rows] = np.arange(shared_rows.size)
        shared = ranked(row_of_ranking[ranking_of], shared_rows)
        with mock.patch.object(evaluation, "_BLOCK_CELLS", cells):
            if not np.isin(query_labels, gallery_labels).any():
                for record in (per_query, shared):
                    with pytest.raises(NoRelevantItemsError):
                        map_from_ranked(record, query_labels, gallery_labels, k=k)
                return
            one_each = map_from_ranked(per_query, query_labels, gallery_labels, k=k)
            grouped = map_from_ranked(shared, query_labels, gallery_labels, k=k)
        assert grouped == one_each
        # Query order: the scored queries' own APs, in order.
        limit = n_gallery if k is None else k
        expected = []
        for i in np.flatnonzero(np.isin(query_labels, gallery_labels)):
            relevant = gallery_labels == query_labels[i]
            n_rel = int(relevant.sum())
            flags = relevant[orders[ranking_of[i]]][:limit].tolist()
            expected.append(oracle_ap(flags, n_rel if k is None else min(n_rel, k)))
        assert one_each.per_query == tuple(expected)

    def test_unread_rows_change_nothing(self):
        # Only the rows that row_of names are read: a record with rows no
        # query reads, in front of and behind the read ones, scores the
        # same.
        labels, gallery_labels = np.array([0, 1, 0]), np.array([1, 0, 0, 1])
        scores = scores_inducing([[2, 0, 3, 1], [0, 1, 2, 3]])
        read = map_from_ranked(RankedList([0, 1, 1], scores, np.arange(4)), labels, gallery_labels)
        unread = -scores
        padded = RankedList([1, 2, 2], np.vstack([unread[:1], scores, unread[1:]]), np.arange(4))
        assert map_from_ranked(padded, labels, gallery_labels) == read

    @pytest.mark.parametrize("query_index", [-1, 2, 5])
    def test_query_index_must_name_a_label(self, query_index):
        # Queries 0 .. query_index against two labels: past 1 a query has
        # no label, and at -1 no label has a query.
        ranked = RankedList(np.zeros(query_index + 1, dtype=np.int64), [[0.1, 0.9]], [0, 1])
        with pytest.raises(InvalidConfigError, match="query_labels must have the shape of row_of"):
            map_from_ranked(ranked, np.array([0, 1]), np.array([0, 1]))

    def test_label_without_a_query_rejected(self):
        # Three labels, two queries: the third label names no query, so
        # it is an error, not a query left unscored.
        ranked = RankedList([0, 1], [[0.1, 0.9], [0.9, 0.1]], [0, 1])
        with pytest.raises(InvalidConfigError, match=r"shape of row_of, \(2,\), got \(3,\)"):
            map_from_ranked(ranked, np.array([0, 1, 0]), np.array([0, 1]))

    def test_query_labels_must_be_flat(self):
        ranked = RankedList([0, 0], [[0.1, 0.9]], [0, 1])
        with pytest.raises(InvalidConfigError, match="shape of row_of"):
            map_from_ranked(ranked, np.array([[0, 1]]), np.array([0, 1]))

    def test_empty_gallery_labels(self):
        ranked = RankedList([0], np.empty((1, 0)), [])
        with pytest.raises(EmptyGalleryError):
            map_from_ranked(ranked, np.array([0]), np.array([], dtype=np.int64))

    def test_list_must_rank_the_whole_gallery(self):
        # Two score columns against a gallery of three labels, or of one.
        for gallery_labels in ([0, 1, 0], [0]):
            with pytest.raises(InvalidConfigError, match="whole gallery"):
                map_from_ranked(one_ranking([1, 0]), np.array([0]), np.array(gallery_labels))


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


class TestKnnClassify:
    def test_duplicate_neighbor_wins_k1(self):
        ref = eset([[1.0, 0.0], [0.0, 1.0]], [3, 4])
        q = eset([[0.99, 0.01]], [3])
        report = knn_classify(q, ref, k=1)
        assert report.value == 1.0
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

    def test_empty_queries(self):
        # Raised a bare ZeroDivisionError from the mean of no queries.
        with pytest.raises(TooFewItemsError, match="no queries"):
            knn_classify(eset(np.zeros((0, 2)), []), eset(np.eye(2), [0, 1]), k=1)

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


# Magnitudes far apart, so the order of a class's additions shows in the
# rounding, with signed zeros and non-finite entries.
PROTOTYPE_ENTRIES = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1e16, -1e16, 1e-300]) | st.floats(
    -1e6, 1e6, allow_nan=False
)


def loop_prototypes(embedding_set):
    """The masked mean of each label's rows, labels ascending, label by label."""
    labels = np.unique(embedding_set.labels)
    rows = [embedding_set.matrix[embedding_set.labels == label].mean(axis=0) for label in labels]
    return eset(np.array(rows), labels)


class TestPrototypes:
    def test_centroids(self):
        s = eset([[1.0, 0.0], [3.0, 0.0], [0.0, 2.0]], [4, 4, 9])
        protos = class_prototypes(s)
        assert np.array_equal(protos.labels, [4, 9])
        assert np.array_equal(protos.matrix, [[2.0, 0.0], [0.0, 2.0]])

    def test_labels_sorted_even_if_input_unsorted(self):
        s = eset([[0.0, 1.0], [1.0, 0.0]], [9, 2])
        protos = class_prototypes(s)
        assert np.array_equal(protos.labels, [2, 9])
        assert np.array_equal(protos.matrix, [[1.0, 0.0], [0.0, 1.0]])

    def test_empty_set(self):
        with pytest.raises(TooFewItemsError):
            class_prototypes(eset(np.zeros((0, 3)), []))

    @pytest.mark.parametrize("dim", [1, 3])
    def test_interleaved_unequal_classes_with_signed_zeros_and_non_finite(self, dim):
        # Class 4 has 10 rows (a one-column mean of 9 or more is summed
        # pairwise), class -1 has one, and class 2 holds -0.0, inf and NaN.
        labels = [4, 2, 4, -1, 4, 4, 2, 4, 4, 4, 2, 4, 4, 4]
        column = [1e16, -0.0, 1.0, 7.5, -1e16, 3.0, -0.0, 1e-3, 2.0, -7.0, np.inf, 0.1, 5.0, -0.25]
        s = eset(np.array(column)[:, None] * np.array([1.0, -1.0, np.nan, 0.5][:dim]), labels)
        with np.errstate(invalid="ignore"):
            assert class_prototypes(s).matrix.tobytes() == loop_prototypes(s).matrix.tobytes()

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_a_masked_mean_per_label(self, data):
        n = data.draw(st.integers(1, 30))
        dim = data.draw(st.integers(1, 4))
        labels = data.draw(st.lists(st.integers(-2, 3), min_size=n, max_size=n))
        rows = data.draw(st.lists(st.lists(PROTOTYPE_ENTRIES, min_size=dim, max_size=dim), min_size=n, max_size=n))
        s = eset(rows, labels)
        with np.errstate(invalid="ignore"):
            expected = loop_prototypes(s)
            got = class_prototypes(s)
        assert got.labels.tolist() == expected.labels.tolist()
        assert got.matrix.tobytes() == expected.matrix.tobytes()

    def test_nearest_prototype_predictions(self):
        protos = eset([[1.0, 0.0], [0.0, 1.0]], [10, 20])
        q = eset([[0.9, 0.1], [0.1, 0.9]], [0, 0])
        predicted, confidence = nearest_prototype(q, protos)
        assert predicted.tolist() == [10, 20]
        assert np.all(confidence > 0.9)

    def test_nearest_prototype_tie_lowest_label(self):
        protos = eset([[1.0, 0.0], [1.0, 0.0]], [5, 30])
        predicted, _ = nearest_prototype(eset([[1.0, 0.0]], [0]), protos)
        assert predicted.tolist() == [5]

    def test_duplicate_prototype_labels_rejected(self):
        protos = eset([[1.0, 0.0], [0.0, 1.0]], [3, 3])
        with pytest.raises(SpeciesMismatchError, match="one row per class, labels strictly ascending; row 1 "):
            nearest_prototype(eset([[1.0, 0.0]], [0]), protos)

    def test_out_of_order_prototype_labels_rejected(self):
        # A table is never re-sorted: out of order, it is an error.
        protos = eset(np.eye(3), [1, 5, 3])
        with pytest.raises(SpeciesMismatchError, match="prototypes must hold one row per class.*row 2 "):
            nearest_prototype(eset([[1.0, 0.0, 0.0]], [0]), protos)

    def test_nearest_prototype_needs_a_prototype(self):
        # Raised NumPy's ValueError from argmax of an empty sequence.
        with pytest.raises(EmptyGalleryError, match="no prototypes"):
            nearest_prototype(eset([[1.0, 0.0]], [0]), eset(np.zeros((0, 2)), []))

    def test_nearest_prototype_of_no_queries_is_empty(self):
        predicted, confidence = nearest_prototype(eset(np.zeros((0, 2)), []), eset(np.eye(2), [0, 1]))
        assert predicted.shape == confidence.shape == (0,)


class TestZeroShot:
    def test_perfect_separation(self):
        protos = eset([[1.0, 0.0], [0.0, 1.0]], [0, 1])
        q = eset([[0.9, 0.1], [0.2, 0.8], [1.0, 0.01]], [0, 1, 0])
        report = zero_shot_classify(q, protos)
        assert report.value == 1.0
        assert report.metadata["n_prototypes"] == 2

    def test_partial_accuracy(self):
        protos = eset([[1.0, 0.0], [0.0, 1.0]], [0, 1])
        q = eset([[0.9, 0.1], [0.9, 0.1]], [0, 1])
        report = zero_shot_classify(q, protos)
        assert report.value == 0.5
        assert report.per_query == (1.0, 0.0)
        assert [type(value) for value in report.per_query] == [float, float]

    def test_missing_prototype(self):
        protos = eset([[1.0, 0.0]], [0])
        q = eset([[1.0, 0.0]], [3])
        with pytest.raises(MissingPrototypeError, match=r"\[3\]"):
            zero_shot_classify(q, protos)

    def test_extra_prototypes_allowed(self):
        protos = eset([[1.0, 0.0], [0.0, 1.0]], [0, 99])
        q = eset([[0.9, 0.05]], [0])
        assert zero_shot_classify(q, protos).value == 1.0

    def test_empty_queries(self):
        # Raised a bare ZeroDivisionError from the mean of no queries.
        with pytest.raises(TooFewItemsError, match="no queries"):
            zero_shot_classify(eset(np.zeros((0, 2)), []), eset(np.eye(2), [0, 1]))


# -- batched evaluation against the acceptance gate's naive oracles -------------
#
# Rows come from an exact palette (see conftest.exact_sets), so the naive
# per-pair scores equal the library's BLAS scores bit for bit and every
# difference is the batched code's. Labels and block budgets are drawn as
# above (QUERY_LABELS, GALLERY_LABELS, BLOCK_CELLS).


def oracle_map_at(queries, gallery, k, scores=None):
    """oracle_map truncated at k (None: not truncated), normalized by
    min(total relevant, k); ``scores`` defaults to the naive per-pair cosines."""
    if scores is None:
        scores = oracle_pair_scores(queries.matrix, gallery.matrix)
    per_query = []
    for i in range(queries.n_items):
        label = int(queries.labels[i])
        n_rel = int(np.sum(gallery.labels == label))
        if n_rel == 0:
            continue
        flags = [int(gallery.labels[j]) == label for j in oracle_rank(scores[i])[:k]]
        per_query.append(oracle_ap(flags, n_rel if k is None else min(n_rel, k)))
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
            st.lists(st.sampled_from([np.inf, 1.0, 0.5, 0.0, -0.0, -0.5, -np.inf]), min_size=5, max_size=5),
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
            st.lists(st.sampled_from([np.inf, 1.0, 0.0, -0.0, -1.0, -np.inf, np.nan]), min_size=4, max_size=4),
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

    def test_top_k_sends_a_row_holding_nan_to_the_full_sort(self):
        # argmax would pick the NaN first; the full sort ranks it last.
        scores = np.array([[0.5, np.nan, 1.0, 0.25], [0.5, 0.75, 1.0, 0.25]])
        assert evaluation._top_k(scores, 2).tolist() == [[2, 0], [2, 1]]

    def test_top_k_sends_a_row_short_of_finite_scores_to_the_full_sort(self):
        # One score above -inf for k = 3: the third pass would pick the
        # already-taken column 0 again; the full sort takes -inf in index order.
        scores = np.array([[-np.inf, 0.5, -np.inf, -np.inf], [0.25, 0.5, -np.inf, 0.75]])
        assert evaluation._top_k(scores, 3).tolist() == [[1, 0, 2], [3, 1, 0]]

    @pytest.mark.parametrize("space", ["raw", "distilled"])
    def test_top_k_matches_the_full_sort_on_the_default_eval_split(self, default_experiment, space):
        # The kNN score matrices of the default run, self-matches excluded.
        from xmodal.pipeline import embedded_audio_set
        from xmodal.runconfig import adapter_config_for

        result, _ = default_experiment
        audio = result.prepared.eval_view.audio_features
        if space == "distilled":
            audio = embedded_audio_set(adapter_config_for(result.config), result.train_report.final_params, audio)
        scores = similarity_matrix(audio, audio)
        np.fill_diagonal(scores, -np.inf)
        full = rank_by_score(scores)
        for k in (1, 3, 5, 10):
            assert np.array_equal(evaluation._top_k(scores, k), full[:, :k])

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

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 12), BLOCK_CELLS)
    @settings(max_examples=50, deadline=None)
    def test_chance_map(self, n_per_class, n_classes, trials, cells):
        labels = np.repeat(np.arange(n_classes), n_per_class)
        values = [
            oracle_ap(list(labels[rng_for(3, "chance", t).permutation(labels.size)] == 0), n_per_class)
            for t in range(trials)
        ]
        with mock.patch.object(evaluation, "_BLOCK_CELLS", cells):
            value = chance_map_oracle(n_per_class, n_classes, trials=trials, seed=3)
        assert value == sum(values) / len(values)


def gaussian_set(n_rows, dim, seed, n_classes=192) -> EmbeddingSet:
    rng = rng_for(seed, "row blocks")
    return eset(rng.standard_normal((n_rows, dim)), np.arange(n_rows) % n_classes)


def traced_peak_mb(call) -> float:
    """Peak memory that ``call()`` allocates above what is live on entry, in MB."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        if started:
            tracemalloc.stop()


class TestScoreRowBlocks:
    # The eval_wide shapes: 1920 eval clips against 960 images, and kNN
    # leave-one-out over the 1920 clips, in the raw audio (20) and the
    # teacher (32) dimensions.

    @pytest.mark.parametrize("metric", ["knn", "map"])
    def test_metrics_never_hold_the_whole_score_matrix(self, metric):
        # The whole float64 matrices are 29.5 MB (1920 x 1920) and 14.7 MB
        # (1920 x 960); one row block and its temporaries take a few MB.
        clips = gaussian_set(1920, 32, 0)
        images = gaussian_set(960, 32, 1)
        calls = {"knn": lambda: knn_classify(clips, clips, 5), "map": lambda: map_retrieval(clips, images)}
        assert traced_peak_mb(calls[metric]) < 8.0

    @pytest.mark.parametrize("dim", [20, 32])
    @pytest.mark.parametrize("width", [960, 1920])
    def test_blocks_hold_the_bits_of_the_whole_product(self, dim, width):
        # The premise of the benchmark's pinned eval_wide digests, which
        # were recorded when both metrics ranked rows of the whole product.
        clips = gaussian_set(1920, dim, 0)
        gallery = gaussian_set(width, dim, 1)
        whole = similarity_matrix(clips, gallery)
        scores = _cosine_rows(clips, gallery)
        for rows in evaluation._row_blocks(clips.n_items, width):
            assert np.array_equal(scores(rows), whole[rows])

    @pytest.mark.parametrize("dim", [20, 32])
    def test_reports_equal_one_whole_block(self, dim):
        clips = gaussian_set(1920, dim, 0)
        images = gaussian_set(960, dim, 1)
        blocked = map_retrieval(clips, images), knn_classify(clips, clips, 5)
        with mock.patch.object(evaluation, "_BLOCK_CELLS", clips.n_items**2):
            whole = map_retrieval(clips, images), knn_classify(clips, clips, 5)
        assert blocked == whole
