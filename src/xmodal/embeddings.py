"""Dense embedding primitives: labeled sets, cosine similarity matrices.

All arithmetic is float64. Containers are immutable after construction
(their numpy buffers are marked read-only), so they can be shared across
threads freely. Row-major order is canonical and matches the on-disk
layout in :mod:`xmodal.storage`.

Zero vectors are rejected rather than mapped to zero similarity: they
indicate an upstream bug and silently scoring them would hide it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError, ZeroVectorError


class Modality(enum.Enum):
    """Which encoder an embedding set simulates."""

    AUDIO = "audio"
    IMAGE = "image"
    TEACHER_TEXT = "teacher_text"
    STUDENT_TEXT = "student_text"


@dataclass(frozen=True)
class EmbeddingSet:
    """A labeled matrix of embeddings, one row per item.

    ``labels[i]`` is the species_id of row ``i``. Rows carry no norm
    promise: every consumer that needs unit rows (``similarity_matrix``,
    ``normalize_rows``, the loss) scales them itself.
    """

    matrix: np.ndarray
    labels: np.ndarray
    modality: Modality

    def __post_init__(self):
        matrix = np.ascontiguousarray(np.asarray(self.matrix, dtype=np.float64))
        if matrix.ndim != 2:
            raise DimensionMismatchError(f"expected a 2-d array, got shape {matrix.shape}")
        matrix.flags.writeable = False
        labels = np.ascontiguousarray(np.asarray(self.labels, dtype=np.int64))
        labels.flags.writeable = False
        if labels.ndim != 1 or labels.shape[0] != matrix.shape[0]:
            raise DimensionMismatchError(
                f"labels length {labels.shape} does not match {matrix.shape[0]} rows"
            )
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "labels", labels)

    @property
    def n_items(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def take(self, indices) -> "EmbeddingSet":
        """Subset of rows (by position), preserving order and labels."""
        idx = np.asarray(indices, dtype=np.int64)
        return EmbeddingSet(self.matrix[idx], self.labels[idx], self.modality)


# Below this norm a row's squared entries are subnormal or underflow to zero.
_TINY_NORM = np.sqrt(np.finfo(np.float64).tiny)


def _unit_rows(matrix: np.ndarray, side: str) -> np.ndarray:
    return _divide_by_norms(matrix, np.linalg.norm(matrix, axis=1), side)


def _divide_by_norms(matrix: np.ndarray, norms: np.ndarray, side: str) -> np.ndarray:
    """``matrix`` rows over their Euclidean ``norms``; ``norms`` is not modified."""
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
        norms = norms.copy()
        norms[tiny] = np.linalg.norm(matrix[tiny], axis=1)
    return matrix / norms[:, None]


def _cosine_rows(queries: EmbeddingSet, gallery: EmbeddingSet) -> Callable[[slice], np.ndarray]:
    """``scores(rows)``: rows ``rows`` of the cosine matrix, a fresh array.

    Both sides are scaled to unit rows once, here; each call is then one
    BLAS GEMM of the query rows against the whole gallery. Zero rows
    raise ZeroVectorError naming their side.
    """
    if queries.dim != gallery.dim:
        raise DimensionMismatchError(f"dims differ: {queries.dim} vs {gallery.dim}")
    q = _unit_rows(queries.matrix, "query")
    g = _unit_rows(gallery.matrix, "gallery").T

    def scores(rows: slice) -> np.ndarray:
        return q[rows] @ g

    return scores


def similarity_matrix(queries: EmbeddingSet, gallery: EmbeddingSet) -> np.ndarray:
    """Pairwise cosine similarities, shape (n_queries, n_gallery).

    Entry (i, j) is the cosine of the angle between query row i and
    gallery row j, in [-1, 1] up to rounding (not clipped). Zero rows
    raise ZeroVectorError naming their side. This is the whole-range
    call of the row-block product that the metrics score block by block:
    one GEMM per row block on unit rows scaled once per side.

    A row's bits may depend on the other rows of its block. Measured with
    OpenBLAS 0.3.31 on x86-64, 1920 query rows of dimension 20 or 32 in
    the metrics' row blocks: at gallery widths 192, 960 and 1920 every
    block equals the same rows of the whole product under the SkylakeX,
    Haswell, Sandybridge and Prescott kernels. Under SkylakeX, the kernel
    OpenBLAS picks on an AVX-512 CPU, every block differs at widths 961,
    1921 and 1925. A single-row block, which NumPy sends to gemv, differs
    under every kernel. Nothing in the package relies on a row's bits
    being the same in another product.
    """
    return _cosine_rows(queries, gallery)(slice(None))


def normalize_rows(embedding_set: EmbeddingSet) -> EmbeddingSet:
    """Scale every row to unit norm; labels and row order are preserved.

    Raises ZeroVectorError naming the first offending row if any row is
    all zeros. Not idempotent to the bit: a second pass over unit rows
    can change their last bit, because each norm is itself rounded.
    """
    unit = _unit_rows(embedding_set.matrix, "input")
    return EmbeddingSet(unit, embedding_set.labels, embedding_set.modality)
