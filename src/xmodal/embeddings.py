"""Dense embedding primitives: vectors, labeled sets, cosine similarity.

All arithmetic is float64. Containers are immutable after construction
(their numpy buffers are marked read-only), so they can be shared across
threads freely. Row-major order is canonical and matches the on-disk
layout in :mod:`xmodal.storage`.

Zero vectors are rejected rather than mapped to zero similarity: they
indicate an upstream bug and silently scoring them would hide it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, ZeroVectorError


class Modality(enum.Enum):
    """Which encoder an embedding set simulates."""

    AUDIO = "audio"
    IMAGE = "image"
    TEACHER_TEXT = "teacher_text"
    STUDENT_TEXT = "student_text"


def _readonly_f64(values, ndim: int) -> np.ndarray:
    arr = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
    if arr.ndim != ndim:
        raise DimensionMismatchError(f"expected a {ndim}-d array, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Embedding:
    """One dense vector with an explicit dimensionality tag."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly_f64(self.values, ndim=1))

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def normalize(self) -> "Embedding":
        """Return a unit-norm copy; raises ZeroVectorError on the zero vector."""
        n = self.norm()
        if n == 0.0:
            raise ZeroVectorError("cannot normalize the zero vector")
        return Embedding(self.values / n)


@dataclass(frozen=True)
class TaxonLabel:
    """Hierarchical class identity: family > genus > species.

    ``species_id`` is globally unique and determines the (genus, family)
    pair; ``variant_count`` is the number of text prompt variants each
    species carries.
    """

    family_id: int
    genus_id: int
    species_id: int
    variant_count: int

    def __post_init__(self):
        if self.variant_count < 1:
            raise ValueError("variant_count must be positive")


@dataclass(frozen=True)
class EmbeddingSet:
    """A labeled matrix of embeddings, one row per item.

    ``labels[i]`` is the species_id of row ``i``. When ``normalized`` is
    True every row must already have unit Euclidean norm (checked to 1e-9).
    """

    matrix: np.ndarray
    labels: np.ndarray
    modality: Modality
    normalized: bool = field(default=False)

    def __post_init__(self):
        matrix = _readonly_f64(self.matrix, ndim=2)
        labels = np.ascontiguousarray(np.asarray(self.labels, dtype=np.int64))
        labels.flags.writeable = False
        if labels.ndim != 1 or labels.shape[0] != matrix.shape[0]:
            raise DimensionMismatchError(
                f"labels length {labels.shape} does not match {matrix.shape[0]} rows"
            )
        if self.normalized and matrix.shape[0] > 0:
            norms = np.linalg.norm(matrix, axis=1)
            worst = float(np.max(np.abs(norms - 1.0)))
            if worst > 1e-9:
                raise ValueError(f"set marked normalized but a row deviates by {worst:.3e}")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "labels", labels)

    @property
    def n_items(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def row(self, i: int) -> Embedding:
        return Embedding(self.matrix[i])

    def take(self, indices) -> "EmbeddingSet":
        """Subset of rows (by position), preserving order and labels."""
        idx = np.asarray(indices, dtype=np.int64)
        return EmbeddingSet(
            self.matrix[idx], self.labels[idx], self.modality, normalized=self.normalized
        )


def cosine_similarity(a: Embedding, b: Embedding) -> float:
    """Cosine of the angle between two embeddings, in [-1, 1].

    Symmetric and invariant to positive rescaling of either argument.

    Raises:
        DimensionMismatchError: if the vectors differ in length.
        ZeroVectorError: if either vector is all zeros.
    """
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dims differ: {a.dim} vs {b.dim}")
    na = a.norm()
    nb = b.norm()
    if na == 0.0 or nb == 0.0:
        raise ZeroVectorError("cosine similarity is undefined for zero vectors")
    value = float(np.dot(a.values, b.values) / (na * nb))
    # Guard against float drift past the mathematical range.
    return min(1.0, max(-1.0, value))


# Below this norm a row's squared entries are subnormal or underflow to zero.
_TINY_NORM = np.sqrt(np.finfo(np.float64).tiny)


def _unit_rows(matrix: np.ndarray, side: str) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1)
    tiny = np.flatnonzero(norms < _TINY_NORM)
    if tiny.size:
        # Scale those rows by their largest magnitude first; every other
        # row keeps the direct division.
        peaks = np.max(np.abs(matrix[tiny]), axis=1, initial=0.0)
        zero = tiny[peaks == 0.0]
        if zero.size:
            raise ZeroVectorError(f"{side} row {int(zero[0])} is all zeros")
        matrix = matrix.copy()
        matrix[tiny] /= peaks[:, None]
        norms[tiny] = np.linalg.norm(matrix[tiny], axis=1)
    return matrix / norms[:, None]


def similarity_matrix(queries: EmbeddingSet, gallery: EmbeddingSet) -> np.ndarray:
    """Pairwise cosine similarities, shape (n_queries, n_gallery).

    Entry (i, j) equals ``cosine_similarity(queries.row(i), gallery.row(j))``.
    Each entry is an independent dot product, so parallel evaluation over
    query rows cannot change the result.
    """
    if queries.dim != gallery.dim:
        raise DimensionMismatchError(f"dims differ: {queries.dim} vs {gallery.dim}")
    q = _unit_rows(queries.matrix, "query")
    g = _unit_rows(gallery.matrix, "gallery")
    return q @ g.T


def normalize_rows(embedding_set: EmbeddingSet) -> EmbeddingSet:
    """Scale every row to unit norm; labels and row order are preserved.

    Raises ZeroVectorError naming the first offending row if any row is
    all zeros. Idempotent on already-normalized sets.
    """
    unit = _unit_rows(embedding_set.matrix, "input")
    return EmbeddingSet(unit, embedding_set.labels, embedding_set.modality, normalized=True)
