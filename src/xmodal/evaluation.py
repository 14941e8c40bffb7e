"""Retrieval and classification metrics.

All rankings are by descending cosine similarity with ties broken by
ascending gallery index, so every metric is deterministic. Truncated
mean average precision (mAP@K) normalizes each query by
min(total relevant, K), the standard convention.

Metrics work on row blocks of the score matrix, not query by query. A
block holds at most ``_BLOCK_CELLS`` cells (its height is that budget
over the gallery width), so the ranking temporaries stay near a megabyte
each whatever the number of queries. Within a block:

* ranking is one stable ``argsort`` of the negated scores along each row;
* average precision takes ``hits / rank`` at each relevant position and
  0.0 elsewhere, and sums every row left to right with
  ``np.add.accumulate``. Adding 0.0 is exact, so this is the plain
  sequential sum of a one-query loop, bit for bit; pairwise ``np.sum``
  would round differently;
* kNN selects with ``np.partition``: it keeps every column scoring at or
  above the row's k-th largest score, so boundary ties are all kept, and
  sorts those by (-score, index). That is exactly the first k columns of
  the full stable ranking.

Metric means are plain sequential sums over the per-query values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .embeddings import EmbeddingSet, similarity_matrix
from .errors import (
    EmptyGalleryError,
    InvalidConfigError,
    KTooLargeError,
    MissingPrototypeError,
    NoRelevantItemsError,
    SpeciesMismatchError,
    TooFewItemsError,
)
from .rng import rng_for

__all__ = [
    "EvalReport",
    "RankedList",
    "rank_by_score",
    "average_precision",
    "map_retrieval",
    "map_from_ranked",
    "chance_map_oracle",
    "knn_classify",
    "zero_shot_classify",
    "class_prototypes",
    "nearest_prototype",
]

# Cells in one row block of a score matrix. Block temporaries (negated
# scores, order, running sums) are then 1 MB each at float64/int64.
_BLOCK_CELLS = 1 << 17


@dataclass(frozen=True)
class EvalReport:
    """One metric value with its per-query breakdown and metadata."""

    metric_name: str
    value: float
    per_query: Optional[Tuple[float, ...]] = None
    k: Optional[int] = None
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (0.0 <= self.value <= 1.0):
            raise InvalidConfigError(f"metric value must lie in [0, 1], got {self.value}")
        if self.per_query is not None:
            mean = sum(self.per_query) / len(self.per_query)
            if abs(mean - self.value) > 1e-12:
                raise InvalidConfigError(
                    f"value {self.value} does not equal the per-query mean {mean}"
                )


@dataclass(frozen=True)
class RankedList:
    """Gallery ranking for one query, scores aligned with the order."""

    query_index: int
    gallery_order: np.ndarray
    scores: np.ndarray

    def __post_init__(self) -> None:
        order = np.asarray(self.gallery_order, dtype=np.int64)
        scores = np.asarray(self.scores, dtype=np.float64)
        if order.shape != scores.shape or order.ndim != 1:
            raise InvalidConfigError("gallery_order and scores must be flat and aligned")
        # n entries in [0, n), none of them repeated: a permutation, in O(n).
        if order.size and (
            order.min() < 0 or order.max() >= order.size or np.bincount(order).max() > 1
        ):
            raise InvalidConfigError("gallery_order must be a permutation of the gallery")
        if order.size > 1 and np.any(np.diff(scores) > 0):
            raise InvalidConfigError("scores must be non-increasing along the ranking")
        object.__setattr__(self, "gallery_order", order)
        object.__setattr__(self, "scores", scores)


def _row_blocks(n_rows: int, width: int) -> Iterator[slice]:
    """Consecutive row slices of at most ``_BLOCK_CELLS`` cells each."""
    height = max(1, _BLOCK_CELLS // max(width, 1))
    for start in range(0, n_rows, height):
        yield slice(start, min(start + height, n_rows))


def rank_by_score(scores: np.ndarray) -> np.ndarray:
    """Gallery order: descending score, ties by ascending index.

    Sorts along the last axis, so a score row gives one ranking and a
    block of rows gives one ranking per row.
    """
    scores = np.asarray(scores, dtype=np.float64)
    return np.argsort(-scores, axis=-1, kind="stable")


def _top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """``rank_by_score(scores)[:, :k]`` without sorting whole rows.

    Keeps every column scoring at or above its row's k-th largest score,
    boundary ties included, and sorts only those by (-score, index). NaN
    ranks last, as in the full sort: a row whose k-th entry is NaN keeps
    all of its columns.
    """
    negated = -scores
    kth = np.partition(negated, k - 1, axis=1)[:, k - 1 : k]
    rows, cols = np.nonzero((negated <= kth) | np.isnan(kth))
    ranked = cols[np.lexsort((cols, negated[rows, cols], rows))]
    counts = np.bincount(rows, minlength=scores.shape[0])
    starts = np.cumsum(counts) - counts
    return ranked[starts[:, None] + np.arange(k)]


def _ap_rows(relevant: np.ndarray, denom) -> np.ndarray:
    """AP of each row of a ranked boolean relevance matrix.

    Precision ``hits / rank`` at each relevant position and 0.0 elsewhere,
    summed left to right by ``np.add.accumulate``: adding 0.0 is exact, so
    this is the one-query loop's sequential sum, bit for bit.
    """
    if relevant.shape[1] == 0:
        return np.zeros(relevant.shape[0])
    hits = np.cumsum(relevant, axis=1)
    precision = np.where(relevant, hits / np.arange(1, relevant.shape[1] + 1), 0.0)
    return np.add.accumulate(precision, axis=1)[:, -1] / denom


def average_precision(ranked_relevance: Sequence, n_relevant: Optional[int] = None) -> float:
    """AP of one ranked list of binary relevance flags.

    ``n_relevant`` overrides the normalizer; pass min(total relevant, k)
    when the list was truncated at k. Raises when nothing is relevant.
    """
    relevant = np.asarray(ranked_relevance, dtype=bool).reshape(1, -1)
    denom = int(relevant.sum()) if n_relevant is None else int(n_relevant)
    if denom <= 0:
        raise NoRelevantItemsError("average precision is undefined with no relevant items")
    return float(_ap_rows(relevant, denom)[0])


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def _relevant_counts(query_labels: np.ndarray, gallery_labels: np.ndarray) -> np.ndarray:
    """Number of gallery items that share each query's label."""
    classes, counts = np.unique(gallery_labels, return_counts=True)
    slot = np.minimum(np.searchsorted(classes, query_labels), classes.size - 1)
    return np.where(classes[slot] == query_labels, counts[slot], 0)


def _map_report(
    order_blocks: Iterable[np.ndarray],
    query_labels: np.ndarray,
    gallery_labels: np.ndarray,
    k: Optional[int],
    metric_name: Optional[str],
) -> EvalReport:
    """mAP over blocks of gallery orders; ``query_labels`` follow their rows."""
    totals = _relevant_counts(query_labels, gallery_labels)
    per_query: List[float] = []
    start = 0
    for order in order_blocks:
        rows = slice(start, start + order.shape[0])
        start = rows.stop
        relevant = gallery_labels[order[:, :k]] == query_labels[rows, None]
        total = totals[rows]
        denom = total if k is None else np.minimum(total, k)
        # Queries with nothing relevant are dropped; 1 only spares them 0/0.
        ap = _ap_rows(relevant, np.maximum(denom, 1))
        per_query.extend(ap[total > 0].tolist())
    if not per_query:
        raise NoRelevantItemsError("no query has any relevant gallery item")
    name = metric_name or ("map" if k is None else f"map@{k}")
    return EvalReport(
        metric_name=name,
        value=_mean(per_query),
        per_query=tuple(per_query),
        k=k,
        metadata={
            "excluded_queries": query_labels.size - len(per_query),
            "n_queries": query_labels.size,
        },
    )


def map_retrieval(
    queries: EmbeddingSet,
    gallery: EmbeddingSet,
    k: Optional[int] = None,
    metric_name: Optional[str] = None,
) -> EvalReport:
    """Mean average precision for label-match retrieval, optionally @k.

    Queries with no relevant gallery item are excluded from the mean;
    their count is reported under metadata["excluded_queries"].
    """
    if k is not None and k < 1:
        raise InvalidConfigError(f"k must be >= 1, got {k}")
    if gallery.n_items == 0:
        raise EmptyGalleryError("cannot rank an empty gallery")
    scores = similarity_matrix(queries, gallery)
    orders = (rank_by_score(scores[rows]) for rows in _row_blocks(queries.n_items, gallery.n_items))
    return _map_report(orders, queries.labels, gallery.labels, k, metric_name)


def map_from_ranked(
    ranked_lists: Sequence[RankedList],
    query_labels: np.ndarray,
    gallery_labels: np.ndarray,
    k: Optional[int] = None,
    metric_name: Optional[str] = None,
) -> EvalReport:
    """Mean average precision over pre-ranked galleries."""
    if k is not None and k < 1:
        raise InvalidConfigError(f"k must be >= 1, got {k}")
    query_labels = np.asarray(query_labels, dtype=np.int64)
    gallery_labels = np.asarray(gallery_labels, dtype=np.int64)
    if gallery_labels.size == 0:
        raise EmptyGalleryError("cannot rank an empty gallery")
    if any(ranked.gallery_order.size != gallery_labels.size for ranked in ranked_lists):
        raise InvalidConfigError("every ranked list must order the whole gallery")
    index = np.array([ranked.query_index for ranked in ranked_lists], dtype=np.int64)
    orders = (
        np.stack([ranked.gallery_order for ranked in ranked_lists[rows]])
        for rows in _row_blocks(len(ranked_lists), gallery_labels.size)
    )
    return _map_report(orders, query_labels[index], gallery_labels, k, metric_name)


def chance_map_oracle(
    n_per_class: int,
    n_classes: int,
    k: Optional[int] = None,
    trials: int = 1000,
    seed: int = 0,
) -> float:
    """Monte Carlo mean AP of uniformly random rankings.

    The gallery holds ``n_per_class`` items for each of ``n_classes``
    classes; by symmetry a single query class is representative.
    """
    if n_per_class < 1 or n_classes < 1:
        raise InvalidConfigError("n_per_class and n_classes must be >= 1")
    if trials < 1:
        raise InvalidConfigError(f"trials must be >= 1, got {trials}")
    if k is not None and k < 1:
        raise InvalidConfigError(f"k must be >= 1, got {k}")
    labels = np.repeat(np.arange(n_classes), n_per_class)
    denom = n_per_class if k is None else min(n_per_class, k)
    values: List[float] = []
    for rows in _row_blocks(trials, labels.size):
        perms = np.stack(
            [rng_for(seed, "chance", t).permutation(labels.size) for t in range(rows.start, rows.stop)]
        )
        values.extend(_ap_rows(labels[perms[:, :k]] == 0, denom).tolist())
    return _mean(values)


def _same_set(queries: EmbeddingSet, reference: EmbeddingSet) -> bool:
    if queries is reference or queries.matrix is reference.matrix:
        return True
    return (
        queries.matrix.shape == reference.matrix.shape
        and np.array_equal(queries.matrix, reference.matrix)
        and np.array_equal(queries.labels, reference.labels)
    )


def knn_classify(queries: EmbeddingSet, reference: EmbeddingSet, k: int) -> EvalReport:
    """Cosine k-nearest-neighbor classification accuracy.

    Majority vote over the k nearest reference labels; a vote tie goes
    to the tied class whose best neighbor ranks highest. When queries
    and reference are the same set, each item is excluded from its own
    neighbor list.
    """
    if k < 1:
        raise InvalidConfigError(f"k must be >= 1, got {k}")
    if reference.n_items == 0:
        raise EmptyGalleryError("reference set is empty")
    exclude_self = _same_set(queries, reference)
    usable = reference.n_items - (1 if exclude_self else 0)
    if k > usable:
        raise KTooLargeError(f"k={k} but only {usable} usable reference items")
    scores = similarity_matrix(queries, reference)
    if exclude_self:
        np.fill_diagonal(scores, -np.inf)
    per_query: List[float] = []
    # A block row also holds a k-by-k vote table.
    for rows in _row_blocks(queries.n_items, max(reference.n_items, k * k)):
        neighbor_labels = reference.labels[_top_k(scores[rows], k)]
        # Votes for each neighbor's class; the first-ranked neighbor of a
        # most-voted class is the prediction, so vote ties go by rank.
        votes = (neighbor_labels[:, :, None] == neighbor_labels[:, None, :]).sum(axis=2)
        first = np.argmax(votes == votes.max(axis=1, keepdims=True), axis=1)
        prediction = neighbor_labels[np.arange(first.size), first]
        per_query.extend((prediction == queries.labels[rows]).astype(np.float64).tolist())
    return EvalReport(
        metric_name=f"knn@{k}_accuracy",
        value=_mean(per_query),
        per_query=tuple(per_query),
        k=k,
        metadata={"exclude_self": exclude_self},
    )


def class_prototypes(embedding_set: EmbeddingSet) -> EmbeddingSet:
    """Per-class centroids, one row per label, labels ascending."""
    if embedding_set.n_items == 0:
        raise TooFewItemsError("cannot build prototypes from an empty set")
    labels = np.unique(embedding_set.labels)
    rows = np.empty((labels.size, embedding_set.dim), dtype=np.float64)
    for j, label in enumerate(labels):
        rows[j] = embedding_set.matrix[embedding_set.labels == label].mean(axis=0)
    return EmbeddingSet(rows, labels, embedding_set.modality, normalized=False)


def nearest_prototype(queries: EmbeddingSet, prototypes: EmbeddingSet) -> Tuple[np.ndarray, np.ndarray]:
    """Predicted label and cosine confidence per query.

    Prototype labels must be unique; cosine ties resolve to the lowest
    label value.
    """
    labels = prototypes.labels
    if np.unique(labels).size != labels.size:
        raise SpeciesMismatchError("prototype labels must be unique")
    order = np.argsort(labels, kind="stable")
    sorted_prototypes = prototypes.take(order)
    scores = similarity_matrix(queries, sorted_prototypes)
    best = np.argmax(scores, axis=1)
    return sorted_prototypes.labels[best], scores[np.arange(queries.n_items), best]


def zero_shot_classify(queries: EmbeddingSet, prototypes: EmbeddingSet) -> EvalReport:
    """Accuracy of nearest-prototype classification."""
    missing = np.setdiff1d(np.unique(queries.labels), prototypes.labels)
    if missing.size:
        raise MissingPrototypeError(f"no prototype for labels {missing.tolist()}")
    predicted, _ = nearest_prototype(queries, prototypes)
    per_query = tuple(float(p == t) for p, t in zip(predicted, queries.labels))
    return EvalReport(
        metric_name="zero_shot_accuracy",
        value=_mean(per_query),
        per_query=per_query,
        metadata={"n_prototypes": prototypes.n_items},
    )
