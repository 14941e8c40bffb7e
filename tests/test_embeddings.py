"""Embedding primitives: sets, similarity matrices, normalization."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from xmodal import (
    DimensionMismatchError,
    EmbeddingSet,
    Modality,
    ZeroVectorError,
    normalize_rows,
    similarity_matrix,
)

from conftest import assert_unit_rows, brute_force_scores


def eset(matrix, labels=None, modality=Modality.AUDIO) -> EmbeddingSet:
    m = np.asarray(matrix, dtype=np.float64)
    if labels is None:
        labels = np.arange(m.shape[0])
    return EmbeddingSet(m, np.asarray(labels), modality)


def cosine(a, b) -> float:
    """Cosine of one pair, as similarity_matrix computes it."""
    return float(similarity_matrix(eset([a]), eset([b]))[0, 0])


def naive_cosine(a, b) -> float:
    """Per-pair oracle: one Python sum per dot product and norm."""
    dot = sum(float(x) * float(y) for x, y in zip(a, b))
    norm_a = sum(float(x) ** 2 for x in a) ** 0.5
    norm_b = sum(float(y) ** 2 for y in b) ** 0.5
    return dot / (norm_a * norm_b)


finite_vectors = npst.arrays(
    np.float64,
    st.integers(min_value=1, max_value=12),
    elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
)


class TestEmbeddingSet:
    def test_shapes_and_accessors(self):
        s = eset([[1, 0], [0, 2], [3, 3]], labels=[4, 4, 7])
        assert s.n_items == 3
        assert s.dim == 2
        assert s.matrix.dtype == np.float64
        assert s.labels.dtype == np.int64
        assert np.array_equal(s.matrix[1], [0.0, 2.0])

    def test_matrix_must_be_2d(self):
        for bad in (np.zeros(3), np.zeros((2, 2, 2))):
            with pytest.raises(DimensionMismatchError, match="2-d"):
                EmbeddingSet(bad, np.arange(bad.shape[0]), Modality.AUDIO)

    def test_matrix_and_labels_readonly(self):
        s = eset([[1.0, 0.0]])
        with pytest.raises(ValueError):
            s.matrix[0, 0] = 5.0
        with pytest.raises(ValueError):
            s.labels[0] = 5

    def test_label_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            eset([[1.0, 0.0], [0.0, 1.0]], labels=[1])

    def test_take_preserves_labels(self):
        s = eset([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]], labels=[9, 8, 7])
        sub = s.take([2, 0])
        assert np.array_equal(sub.labels, [7, 9])
        assert np.array_equal(sub.matrix[0], [1.0, 0.0])

    def test_empty_set_allowed(self):
        s = eset(np.zeros((0, 4)), labels=[])
        assert s.n_items == 0
        assert s.dim == 4


class TestCosineSimilarity:
    """The cosine of one pair: a 1x1 similarity matrix."""

    def test_identical_unit_vectors(self):
        assert cosine([1.0, 0.0], [1.0, 0.0]) == 1.0

    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_reference_value(self):
        # (1,2,3) vs (4,5,6): 32 / (sqrt(14) * sqrt(77))
        got = cosine([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        assert got == pytest.approx(0.9746318461970762, abs=1e-8)

    def test_opposite_vectors(self):
        assert cosine([2.0, 0.0], [-5.0, 0.0]) == -1.0

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError, match="dims differ: 2 vs 3"):
            cosine([1.0, 0.0], [1.0, 0.0, 0.0])

    def test_zero_vector_raises(self):
        with pytest.raises(ZeroVectorError):
            cosine([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(ZeroVectorError):
            cosine([1.0, 0.0], [0.0, 0.0])

    @given(finite_vectors.flatmap(lambda a: st.tuples(st.just(a), npst.arrays(np.float64, a.shape[0], elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)))))
    @settings(max_examples=60, deadline=None)
    def test_symmetric_and_bounded(self, pair):
        a, b = pair
        if np.linalg.norm(a) == 0.0 or np.linalg.norm(b) == 0.0:
            return
        ab = cosine(a, b)
        ba = cosine(b, a)
        assert ab == ba
        # Unit rows are not clipped, so |cosine| may pass 1 by rounding.
        assert abs(ab) <= 1.0 + 4 * np.finfo(np.float64).eps

    @given(
        finite_vectors.filter(lambda a: np.linalg.norm(a) > 1e-6),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=60, deadline=None)
    def test_positive_scale_invariance(self, a, c):
        base = cosine(a, a * 2.0)
        scaled = cosine(a * c, a * 2.0)
        assert scaled == pytest.approx(base, abs=1e-9)


class TestSimilarityMatrix:
    def test_single_pair(self):
        s = similarity_matrix(eset([[2.0, 0.0]]), eset([[5.0, 0.0]]))
        assert s.shape == (1, 1)
        assert s[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_orthonormal_identity(self):
        basis = eset([[1.0, 0.0], [0.0, 1.0]])
        s = similarity_matrix(basis, basis)
        assert np.allclose(s, np.eye(2), atol=1e-12)

    def test_matches_entrywise_cosine(self):
        rng = np.random.default_rng(3)
        q = eset(rng.standard_normal((3, 4)))
        g = eset(rng.standard_normal((5, 4)))
        s = similarity_matrix(q, g)
        assert s.shape == (3, 5)
        expected = brute_force_scores(q.matrix, g.matrix)
        assert np.allclose(s, expected, atol=1e-12)
        for i in range(3):
            for j in range(5):
                assert s[i, j] == pytest.approx(naive_cosine(q.matrix[i], g.matrix[j]), abs=1e-12)

    def test_zero_row_named_by_side(self):
        good = eset([[1.0, 0.0]])
        bad = eset([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ZeroVectorError, match="query row 1"):
            similarity_matrix(bad, good)
        with pytest.raises(ZeroVectorError, match="gallery row 1"):
            similarity_matrix(good, bad)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            similarity_matrix(eset([[1.0, 0.0]]), eset([[1.0, 0.0, 0.0]]))


class TestNormalizeRows:
    def test_three_four_five(self):
        out = normalize_rows(eset([[3.0, 4.0]]))
        assert np.allclose(out.matrix, [[0.6, 0.8]], atol=1e-15)
        assert_unit_rows(out.matrix)

    def test_idempotent(self):
        rng = np.random.default_rng(9)
        s = eset(rng.standard_normal((6, 5)))
        once = normalize_rows(s)
        twice = normalize_rows(once)
        assert np.max(np.abs(twice.matrix - once.matrix)) <= 1e-12

    def test_zero_row_raises(self):
        with pytest.raises(ZeroVectorError, match="input row 0"):
            normalize_rows(eset([[0.0, 0.0]]))

    def test_preserves_labels_and_modality(self):
        s = eset([[2.0, 0.0], [0.0, 7.0]], labels=[3, 1], modality=Modality.IMAGE)
        out = normalize_rows(s)
        assert np.array_equal(out.labels, [3, 1])
        assert out.modality is Modality.IMAGE

    @given(npst.arrays(
        np.float64,
        st.tuples(st.integers(1, 6), st.integers(1, 6)),
        elements=st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False),
    ))
    # Nonzero rows whose squared entries are subnormal, or underflow to 0.
    @example(np.array([[2.17e-159]]))
    @example(np.array([[1e-170]]))
    @settings(max_examples=60, deadline=None)
    def test_unit_norms(self, matrix):
        if np.any(np.all(matrix == 0.0, axis=1)):
            return
        out = normalize_rows(eset(matrix))
        assert np.allclose(np.linalg.norm(out.matrix, axis=1), 1.0, atol=1e-9)
