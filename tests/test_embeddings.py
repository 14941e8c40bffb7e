"""Embedding primitives: cosine, similarity matrices, normalization."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from xmodal import (
    DimensionMismatchError,
    Embedding,
    EmbeddingSet,
    Modality,
    TaxonLabel,
    ZeroVectorError,
    cosine_similarity,
    normalize_rows,
    similarity_matrix,
)

from conftest import brute_force_scores


def vec(*values) -> Embedding:
    return Embedding(np.array(values, dtype=np.float64))


def eset(matrix, labels=None, modality=Modality.AUDIO, normalized=False) -> EmbeddingSet:
    m = np.asarray(matrix, dtype=np.float64)
    if labels is None:
        labels = np.arange(m.shape[0])
    return EmbeddingSet(m, np.asarray(labels), modality, normalized=normalized)


finite_vectors = npst.arrays(
    np.float64,
    st.integers(min_value=1, max_value=12),
    elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
)


class TestEmbedding:
    def test_values_are_float64_and_readonly(self):
        e = vec(1, 2, 3)
        assert e.values.dtype == np.float64
        assert not e.values.flags.writeable
        with pytest.raises(ValueError):
            e.values[0] = 9.0

    def test_dim_and_norm(self):
        e = vec(3.0, 4.0)
        assert e.dim == 2
        assert e.norm() == 5.0

    def test_normalize_unit_norm(self):
        u = vec(3.0, 4.0).normalize()
        assert np.allclose(u.values, [0.6, 0.8], atol=1e-15)

    def test_normalize_zero_raises(self):
        with pytest.raises(ZeroVectorError, match="cannot normalize the zero vector"):
            vec(0.0, 0.0, 0.0).normalize()

    def test_rejects_matrix_input(self):
        with pytest.raises(DimensionMismatchError):
            Embedding(np.zeros((2, 2)))


class TestTaxonLabel:
    def test_fields(self):
        t = TaxonLabel(family_id=0, genus_id=1, species_id=5, variant_count=3)
        assert (t.family_id, t.genus_id, t.species_id, t.variant_count) == (0, 1, 5, 3)

    def test_variant_count_must_be_positive(self):
        with pytest.raises(ValueError):
            TaxonLabel(family_id=0, genus_id=0, species_id=0, variant_count=0)


class TestEmbeddingSet:
    def test_shapes_and_accessors(self):
        s = eset([[1.0, 0.0], [0.0, 2.0], [3.0, 3.0]], labels=[4, 4, 7])
        assert s.n_items == 3
        assert s.dim == 2
        assert s.labels.dtype == np.int64
        assert np.array_equal(s.row(1).values, [0.0, 2.0])

    def test_matrix_and_labels_readonly(self):
        s = eset([[1.0, 0.0]])
        with pytest.raises(ValueError):
            s.matrix[0, 0] = 5.0
        with pytest.raises(ValueError):
            s.labels[0] = 5

    def test_label_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            eset([[1.0, 0.0], [0.0, 1.0]], labels=[1])

    def test_normalized_flag_checked(self):
        with pytest.raises(ValueError, match="marked normalized"):
            eset([[3.0, 4.0]], normalized=True)
        ok = eset([[0.6, 0.8]], normalized=True)
        assert ok.normalized

    def test_take_preserves_labels_and_flag(self):
        s = eset([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]], labels=[9, 8, 7], normalized=True)
        sub = s.take([2, 0])
        assert np.array_equal(sub.labels, [7, 9])
        assert sub.normalized
        assert np.array_equal(sub.matrix[0], [1.0, 0.0])

    def test_empty_set_allowed(self):
        s = eset(np.zeros((0, 4)), labels=[])
        assert s.n_items == 0
        assert s.dim == 4


class TestCosineSimilarity:
    def test_identical_unit_vectors(self):
        assert cosine_similarity(vec(1.0, 0.0), vec(1.0, 0.0)) == 1.0

    def test_orthogonal(self):
        assert cosine_similarity(vec(1.0, 0.0), vec(0.0, 1.0)) == 0.0

    def test_reference_value(self):
        # (1,2,3) vs (4,5,6): 32 / (sqrt(14) * sqrt(77))
        got = cosine_similarity(vec(1.0, 2.0, 3.0), vec(4.0, 5.0, 6.0))
        assert got == pytest.approx(0.9746318461970762, abs=1e-8)

    def test_opposite_vectors(self):
        assert cosine_similarity(vec(2.0, 0.0), vec(-5.0, 0.0)) == -1.0

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError, match="dims differ: 2 vs 3"):
            cosine_similarity(vec(1.0, 0.0), vec(1.0, 0.0, 0.0))

    def test_zero_vector_raises(self):
        with pytest.raises(ZeroVectorError):
            cosine_similarity(vec(0.0, 0.0), vec(1.0, 0.0))
        with pytest.raises(ZeroVectorError):
            cosine_similarity(vec(1.0, 0.0), vec(0.0, 0.0))

    @given(finite_vectors.flatmap(lambda a: st.tuples(st.just(a), npst.arrays(np.float64, a.shape[0], elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)))))
    @settings(max_examples=60, deadline=None)
    def test_symmetric_and_bounded(self, pair):
        a, b = pair
        if np.linalg.norm(a) == 0.0 or np.linalg.norm(b) == 0.0:
            return
        ab = cosine_similarity(Embedding(a), Embedding(b))
        ba = cosine_similarity(Embedding(b), Embedding(a))
        assert ab == ba
        assert -1.0 <= ab <= 1.0

    @given(
        finite_vectors.filter(lambda a: np.linalg.norm(a) > 1e-6),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=60, deadline=None)
    def test_positive_scale_invariance(self, a, c):
        base = cosine_similarity(Embedding(a), Embedding(a * 2.0))
        scaled = cosine_similarity(Embedding(a * c), Embedding(a * 2.0))
        assert scaled == pytest.approx(base, abs=1e-9)


class TestSimilarityMatrix:
    def test_single_pair(self):
        s = similarity_matrix(eset([[2.0, 0.0]]), eset([[5.0, 0.0]]))
        assert s.shape == (1, 1)
        assert s[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_orthonormal_identity(self):
        basis = eset([[1.0, 0.0], [0.0, 1.0]], normalized=True)
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
                assert s[i, j] == pytest.approx(cosine_similarity(q.row(i), g.row(j)), abs=1e-12)

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
        assert out.normalized

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
