"""Retrieval and classification metrics.

All rankings are by descending cosine similarity with ties broken by
ascending gallery index, so every metric is deterministic. That order is
one stable ``argsort`` of the negated scores, which the fallbacks below
run on their own rows. Truncated mean average precision (mAP@K)
normalizes each query by min(total relevant, K), the standard
convention.

Metrics work on row blocks of the score matrix, not query by query, and
never hold the whole matrix. A block holds at most ``_BLOCK_CELLS``
cells (its height is that budget over the gallery width).
``map_retrieval`` and ``knn_classify`` score a block when they reach it,
by one GEMM of its query rows against the gallery, on rows scaled to
unit norm once per side, written into a buffer that the next block
reuses. So the score block and its temporaries stay near a megabyte
each, whatever the number of queries.

The blocks of one call run on two lanes (``_on_lanes``): the calling
thread and one helper thread, each taking the next block left. Each
block writes its results into its own slots, and the partition is the
one-lane partition, so every result is the same bit for bit whichever
lane ran a block, and whether a second lane ran at all. A second lane
runs only when the call covers two blocks or more and the process may
run on more than one CPU; the default world's metrics are one block
each, so they start no thread. The blocks of ``map_retrieval``,
``map_from_ranked`` and ``knn_classify`` go on two lanes. Three rules
keep the lanes apart:

* lane 1 runs NumPy and this package's private helpers only. A public
  function is entered and left on the calling thread, so a tracer that
  keeps one stack of calls per process still sees them nest;
* lane 1 gets long calls that release the GIL (GEMM, sort, ``argsort``,
  ``argmax`` passes), not loops of small gathers;
* the calling thread allocates each lane's block-sized buffers (the
  score rows, negated in place, and their sorted copy) once per call.
  An array that the helper thread allocates lands in a heap of its own,
  which the process keeps.

With an unpinned multi-threaded BLAS, both lanes call it at once; each
call still computes its block with the same kernel, so the bits are
unchanged. Within a block:

* mAP needs only the ranks of each query's relevant gallery items, not
  the whole order. The negated scores of every row are sorted by value
  (``np.sort``, cheaper than ``argsort``), and a vectorized binary
  search over that sorted block counts, for each relevant item, the
  entries strictly below its negated score: one plus that count is its
  rank. A row of distinct non-NaN scores has exactly one descending
  order, so the count is exact there. Rows whose sorted scores hold an
  equal adjacent pair (``==``, which also catches tied infinities and
  +-0.0) or a NaN are ranked in full, once each, and read through the
  inverse permutation. The search costs R log N per query for R relevant
  items in a gallery of N, so with very few large classes (two in 960
  items, R = 480) it costs a block more than one full ``argsort`` would;
* average precision has one core for its three callers (``map_retrieval``,
  ``map_from_ranked`` and ``chance_map_oracle``): each row's ranks are
  sorted, the j-th rank r earns ``j / r`` when r is within the cut-off
  and 0.0 otherwise, and the row is summed left to right with
  ``np.add.accumulate``. Adding 0.0 is exact, so this is the plain
  sequential sum of a one-query loop over the ranked list, bit for bit;
  pairwise ``np.sum`` would round differently;
* kNN leave-one-out writes ``-inf`` over the block's self cells, then
  picks its k neighbors by k passes of ``np.argmax`` over the block,
  each writing ``-inf`` over the cell it picked, and puts the picked
  scores back after the last pass. ``argmax``
  returns the lowest index among equal maxima (+-0.0 equal), which is
  the full stable ranking's tie order, so the k picks are exactly its
  first k columns. A row holding NaN, or with fewer than k scores above
  ``-inf``, is ranked in full instead. The passes cost k N
  per row, against N log N for a sort: fine for the small k of kNN.

Methods score and this module ranks. A ``RankedList`` holds the score
rows of one classify-then-look-up method (one per predicted class), the
gallery order its columns follow, and for every query the row that
scores it. ``map_from_ranked`` ranks them through ``map_retrieval``'s
blocks: each query block gathers the distinct rows its queries read
into its lane's buffer, and the rank search reads each query's ranks
from the sorted copy of its row. So no array of the whole gallery's
order is built, and ``per_query`` is in query order.

A per-class table (prototypes, a mapped text table) has one row per class,
labels strictly ascending; ``check_class_table`` checks it on entry.

``class_prototypes`` sorts the rows by label once and sums each class
as one contiguous slice, the rows and the reduction of a masked
``.mean(axis=0)``. (``np.add.reduceat`` is not that reduction: it
rounds differently.)

An ``EvalReport`` holds one metric's per-query values and sets its
``value`` from them once: their plain left-to-right ``sum / len``, bit
for bit the one-query loop's mean (``np.mean`` and ``math.fsum`` round
differently). A report carries no name: the key the pipeline files it
under is its only name.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .embeddings import EmbeddingSet, _cosine_rows, similarity_matrix
from .errors import (
    EmptyGalleryError,
    InvalidConfigError,
    KTooLargeError,
    MissingPrototypeError,
    NoRelevantItemsError,
    SpeciesMismatchError,
    TooFewItemsError,
)
from .rng import draw_streams

# Cells in one row block of a score matrix. Block temporaries (negated
# scores, order, running sums) are then 1 MB each at float64/int64.
_BLOCK_CELLS = 1 << 17


@dataclass(frozen=True)
class EvalReport:
    """One metric's per-query values, their mean ``value`` and metadata.

    The report has no name: the key it is filed under is its name.
    """

    per_query: Tuple[float, ...]
    k: Optional[int] = None
    metadata: Dict[str, object] = field(default_factory=dict)
    value: float = field(init=False)

    def __post_init__(self) -> None:
        if not self.per_query:
            raise InvalidConfigError("a metric needs at least one per-query value")
        value = sum(self.per_query) / len(self.per_query)
        if not (0.0 <= value <= 1.0):
            raise InvalidConfigError(f"metric value must lie in [0, 1], got {value}")
        object.__setattr__(self, "value", value)


@dataclass(frozen=True)
class RankedList:
    """The gallery score rows of one method, shared by the queries they serve.

    Query ``i`` is scored by row ``row_of[i]`` of ``scores``, and column
    ``j`` scores gallery item ``gallery_order[j]``. Ranking negates the
    scores in their dtype, so integer ones must be signed and above the
    type's least value, which negates to itself. The rows are stored
    C-contiguous, so a block gathers each of them as one run of memory.
    """

    row_of: np.ndarray
    scores: np.ndarray
    gallery_order: np.ndarray

    def __post_init__(self) -> None:
        row_of = np.asarray(self.row_of, dtype=np.int64)
        scores = np.asarray(self.scores)
        gallery_order = np.asarray(self.gallery_order, dtype=np.int64)
        if row_of.ndim != 1:
            raise InvalidConfigError(f"row_of must be 1-d, got shape {row_of.shape}")
        if scores.ndim != 2 or scores.dtype.kind not in "fi":
            raise InvalidConfigError(f"scores must be 2-d float or signed integer, got {scores.dtype} {scores.shape}")
        if scores.dtype.kind == "i" and scores.size and scores.min() == np.iinfo(scores.dtype).min:
            raise InvalidConfigError(f"{scores.dtype} scores must lie above {np.iinfo(scores.dtype).min}")
        n_rows, width = scores.shape
        if row_of.size and (row_of.min() < 0 or row_of.max() >= n_rows):
            raise InvalidConfigError(f"row_of must lie in [0, {n_rows}), one score row each")
        if gallery_order.shape != (width,) or not np.array_equal(np.sort(gallery_order), np.arange(width)):
            raise InvalidConfigError(f"gallery_order must be a permutation of the {width} columns")
        object.__setattr__(self, "row_of", row_of)
        object.__setattr__(self, "scores", np.ascontiguousarray(scores))
        object.__setattr__(self, "gallery_order", gallery_order)


def _row_blocks(n_rows: int, width: int) -> Iterator[slice]:
    """Consecutive row slices of at most ``_BLOCK_CELLS`` cells each."""
    height = max(1, _BLOCK_CELLS // max(width, 1))
    for start in range(0, n_rows, height):
        yield slice(start, min(start + height, n_rows))


def _on_lanes(
    blocks: Sequence[slice],
    work: Callable[..., None],
    buffers: Sequence[Tuple[int, object]] = (),
) -> None:
    """Call ``work(rows, *scratch)`` once for each block of ``blocks``, on two lanes.

    Lane 0 is the calling thread and lane 1 a helper thread; each takes
    the next block left until none is. ``buffers`` are (width, dtype)
    pairs: every lane gets one array of the tallest block's height per
    pair, allocated here, on the calling thread, and ``scratch`` is their
    first ``len(rows)`` rows. A second lane runs only for two blocks or
    more, when this process may run on more than one CPU. An error from
    either lane is raised here, after both have stopped.
    """
    if not blocks:
        return
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    lanes = 2 if len(blocks) > 1 and cpus > 1 else 1
    height = max(rows.stop - rows.start for rows in blocks)
    pending = deque(blocks)

    def drain(arrays: List[np.ndarray]) -> None:
        while True:
            try:
                rows = pending.popleft()
            except IndexError:
                return
            work(rows, *(array[: rows.stop - rows.start] for array in arrays))

    scratch = [[np.empty((height, width), dtype) for width, dtype in buffers] for _ in range(lanes)]
    if lanes == 1:
        drain(scratch[0])
        return
    failed: List[BaseException] = []

    def helper() -> None:
        try:
            drain(scratch[1])
        except BaseException as exc:
            pending.clear()
            failed.append(exc)

    thread = threading.Thread(target=helper, name="xmodal-lane-1")
    thread.start()
    try:
        drain(scratch[0])
    except BaseException:
        pending.clear()
        raise
    finally:
        thread.join()
    if failed:
        raise failed[0]


def _tied(ranked: np.ndarray) -> np.ndarray:
    """Rows of sorted negated scores whose values alone do not fix the order.

    ``==``, not a zero difference: inf - inf is NaN, so differences miss
    tied infinities. NaN sorts last in every kind, so a row holding one
    ends in one.
    """
    return (ranked[..., 1:] == ranked[..., :-1]).any(axis=-1) | np.isnan(ranked[..., -1:]).any(axis=-1)


def _inverse_ranks(orders: np.ndarray) -> np.ndarray:
    """1-based rank of every item: ``ranks[i, orders[i, j]] == j + 1``."""
    ranks = np.empty_like(orders)
    ranks[np.arange(orders.shape[0])[:, None], orders] = np.arange(1, orders.shape[1] + 1)
    return ranks


def _search_ranks(negated: np.ndarray, columns: np.ndarray, ranked: np.ndarray, row: np.ndarray) -> np.ndarray:
    """1-based rank of gallery item ``columns[i, j]`` in the ranking of row ``row[i]``.

    ``negated`` holds C-contiguous negated score rows, and query ``i``
    reads row ``row[i]``, so several queries may share one. Sorts each
    row by value, into ``ranked`` (of ``negated``'s shape), and finds,
    by a binary search over the flattened sorted block, the number of
    entries strictly below each looked-up value. That is the rank minus
    one in a row of distinct non-NaN scores; the other rows are ranked
    in full, once each, by the stable ``argsort`` that defines the order.
    """
    ranked[...] = negated
    ranked.sort(axis=1)
    width = ranked.shape[1]
    flat = ranked.ravel()
    row_start = (row * width)[:, None]
    values = negated.ravel()[row_start + columns]
    # Branchless lower bound: the answer lies in [lower, lower + size]
    # and each step halves ``size``, so every row takes the same steps.
    lower = np.repeat(row_start, columns.shape[1], axis=1)
    size = width
    while size > 1:
        half = size // 2
        lower += (flat[lower + half] < values) * half
        size -= half
    ranks = lower - row_start + (flat[lower] < values) + 1
    tied = _tied(ranked)
    fallback = tied[row]
    if fallback.any():
        tied_rows = np.flatnonzero(tied)
        inverse = _inverse_ranks(np.argsort(negated[tied_rows], axis=1, kind="stable"))
        ranks[fallback] = inverse[np.searchsorted(tied_rows, row[fallback])[:, None], columns[fallback]]
    return ranks


def _top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """The first k columns of each row's ranking, by k passes of ``np.argmax``.

    ``scores`` is a writable float64 block. Each pass takes every row's
    highest remaining score, the lowest index among equal ones, and
    writes ``-inf`` over it in the block; the picked scores go back, last
    pass first, before any other use of the block, so it ends as it
    began, bit for bit. Rows that this would get wrong are ranked in
    full, by the stable ``argsort`` of their negated scores: a first pick
    of NaN (``argmax`` returns the first NaN, the full sort ranks NaN
    last), and a last pick of ``-inf`` (fewer than k scores above it, so
    a pass may pick a cell already taken). The passes read k N cells per
    row of N, so the cost grows with k: a ``knn_classify`` call over 1920
    items beats a partition-based selection at k = 40 and loses to it by
    k = 80. Every config in the repository uses k = 3 or 5.
    """
    rows = np.arange(scores.shape[0])
    picks = np.empty((scores.shape[0], k), dtype=np.int64)
    picked = np.empty((scores.shape[0], k))
    for j in range(k):
        column = np.argmax(scores, axis=1)
        picks[:, j] = column
        picked[:, j] = scores[rows, column]
        scores[rows, column] = -np.inf
    # A later pass may have picked a cell that an earlier one took.
    for j in reversed(range(k)):
        scores[rows, picks[:, j]] = picked[:, j]
    fallback = np.isnan(picked[:, 0]) | (picked[:, -1] == -np.inf)
    if fallback.any():
        picks[fallback] = np.argsort(-scores[fallback], axis=1, kind="stable")[:, :k]
    return picks


def _ap_from_ranks(ranks: np.ndarray, limit: int, denom) -> np.ndarray:
    """AP of each row from the 1-based ranks of its relevant items.

    Slots a row does not use hold a rank above ``limit``. Sorted, the j-th
    rank r earns precision ``j / r`` when r <= ``limit`` and 0.0 otherwise,
    summed left to right by ``np.add.accumulate``: adding 0.0 is exact, so
    this is the one-query loop's sequential sum over the ranked list, bit
    for bit.
    """
    ranks = np.sort(ranks, axis=1)
    precision = np.where(ranks <= limit, np.arange(1, ranks.shape[1] + 1) / ranks, 0.0)
    return np.add.accumulate(precision, axis=1)[:, -1] / denom


def _map_report(
    ranks_of: Callable[..., np.ndarray],
    query_labels: np.ndarray,
    gallery_labels: np.ndarray,
    k: Optional[int],
    buffers: Sequence[Tuple[int, object]] = (),
) -> EvalReport:
    """mAP of the queries labelled ``query_labels``, one row each.

    ``ranks_of(rows, columns, *scratch)`` gives the 1-based rank of
    gallery item ``columns[i, j]`` in the ranking of query
    ``rows.start + i``; ``scratch`` are its lane's ``buffers``
    (``_on_lanes``).
    """
    classes, counts = np.unique(gallery_labels, return_counts=True)
    # members[c]: the columns of class c, ascending, padded with column 0.
    members = np.zeros((classes.size, counts.max()), dtype=np.int64)
    within = np.arange(gallery_labels.size) - np.repeat(np.cumsum(counts) - counts, counts)
    members[np.repeat(np.arange(classes.size), counts), within] = np.argsort(gallery_labels, kind="stable")
    slot = np.minimum(np.searchsorted(classes, query_labels), classes.size - 1)
    totals = np.where(classes[slot] == query_labels, counts[slot], 0)
    limit = gallery_labels.size if k is None else k
    ap = np.empty(query_labels.size)

    def score_block(rows: slice, *scratch: np.ndarray) -> None:
        total = totals[rows]
        ranks = ranks_of(rows, members[slot[rows]], *scratch)
        ranks[np.arange(members.shape[1]) >= total[:, None]] = limit + 1
        denom = total if k is None else np.minimum(total, k)
        # Queries with nothing relevant are dropped; 1 only spares them 0/0.
        ap[rows] = _ap_from_ranks(ranks, limit, np.maximum(denom, 1))

    _on_lanes(list(_row_blocks(query_labels.size, gallery_labels.size)), score_block, buffers)
    scored = totals > 0
    per_query = ap[scored].tolist()
    if not per_query:
        raise NoRelevantItemsError("no query has any relevant gallery item")
    return EvalReport(
        per_query=tuple(per_query),
        k=k,
        metadata={
            "excluded_queries": scored.size - len(per_query),
            "n_queries": scored.size,
        },
    )


def map_retrieval(queries: EmbeddingSet, gallery: EmbeddingSet, k: Optional[int] = None) -> EvalReport:
    """Mean average precision for label-match retrieval, optionally @k.

    Queries with no relevant gallery item are excluded from the mean;
    their count is reported under metadata["excluded_queries"].
    """
    if k is not None and k < 1:
        raise InvalidConfigError(f"k must be >= 1, got {k}")
    if gallery.n_items == 0:
        raise EmptyGalleryError("cannot rank an empty gallery")
    scores = _cosine_rows(queries, gallery)

    def ranks_of(rows: slice, columns: np.ndarray, negated: np.ndarray, ranked: np.ndarray) -> np.ndarray:
        np.negative(scores(rows, out=negated), out=negated)
        return _search_ranks(negated, columns, ranked, np.arange(len(columns)))

    width = gallery.n_items
    return _map_report(ranks_of, queries.labels, gallery.labels, k, [(width, np.float64), (width, np.float64)])


def map_from_ranked(
    ranked: RankedList,
    query_labels: np.ndarray,
    gallery_labels: np.ndarray,
    k: Optional[int] = None,
) -> EvalReport:
    """Mean average precision over shared score rows.

    Query ``i`` is ranked by row ``ranked.row_of[i]`` and scored with
    ``query_labels[i]``, so the labels must have the shape of ``row_of``.
    The queries go in ``map_retrieval``'s blocks; each block negates the
    distinct rows its queries read, in its lane's buffer, and searches
    the ranks of their relevant items. ``per_query`` is in query order.
    """
    if k is not None and k < 1:
        raise InvalidConfigError(f"k must be >= 1, got {k}")
    query_labels = np.asarray(query_labels, dtype=np.int64)
    gallery_labels = np.asarray(gallery_labels, dtype=np.int64)
    if query_labels.shape != ranked.row_of.shape:
        raise InvalidConfigError(
            f"query_labels must have the shape of row_of, {ranked.row_of.shape}, got {query_labels.shape}"
        )
    if gallery_labels.size == 0:
        raise EmptyGalleryError("cannot rank an empty gallery")
    if ranked.scores.shape[1] != gallery_labels.size:
        raise InvalidConfigError("every score row must score the whole gallery")
    scores, row_of = ranked.scores, ranked.row_of

    def ranks_of(rows: slice, columns: np.ndarray, negated: np.ndarray, by_value: np.ndarray) -> np.ndarray:
        read, row = np.unique(row_of[rows], return_inverse=True)
        # "clip" lets ``take`` write straight into the buffer; ``read`` is in range.
        negated = np.take(scores, read, axis=0, out=negated[: read.size], mode="clip")
        np.negative(negated, out=negated)
        return _search_ranks(negated, columns, by_value[: read.size], row)

    width = gallery_labels.size
    buffers = [(width, scores.dtype), (width, scores.dtype)]
    return _map_report(ranks_of, query_labels, gallery_labels[ranked.gallery_order], k, buffers)


def chance_map_oracle(n_per_class: int, n_classes: int, trials: int = 1000, seed: int = 0) -> float:
    """Monte Carlo mean AP of uniformly random rankings.

    The gallery holds ``n_per_class`` items for each of ``n_classes``
    classes; by symmetry a single query class is representative: the
    relevant items are gallery items ``0 .. n_per_class - 1``.
    """
    if n_per_class < 1 or n_classes < 1:
        raise InvalidConfigError("n_per_class and n_classes must be >= 1")
    if trials < 1:
        raise InvalidConfigError(f"trials must be >= 1, got {trials}")
    n_items = n_per_class * n_classes
    values: List[float] = []
    for rows in _row_blocks(trials, n_items):
        keys = [(t,) for t in range(rows.start, rows.stop)]
        perms = np.empty((len(keys), n_items), dtype=np.int64)
        draw_streams(perms, seed, "chance", keys, "permutation", n_items)
        ranks = _inverse_ranks(perms)[:, :n_per_class]
        values.extend(_ap_from_ranks(ranks, n_items, n_per_class).tolist())
    return sum(values) / len(values)


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
    if queries.n_items == 0:
        raise TooFewItemsError("no queries to classify")
    exclude_self = _same_set(queries, reference)
    usable = reference.n_items - (1 if exclude_self else 0)
    if k > usable:
        raise KTooLargeError(f"k={k} but only {usable} usable reference items")
    scores = _cosine_rows(queries, reference)
    correct = np.empty(queries.n_items)

    def classify_block(rows: slice, block: np.ndarray) -> None:
        scores(rows, out=block)
        if exclude_self:
            block[np.arange(block.shape[0]), np.arange(rows.start, rows.stop)] = -np.inf
        neighbor_labels = reference.labels[_top_k(block, k)]
        # Votes for each neighbor's class; the first-ranked neighbor of a
        # most-voted class is the prediction, so vote ties go by rank.
        votes = (neighbor_labels[:, :, None] == neighbor_labels[:, None, :]).sum(axis=2)
        first = np.argmax(votes == votes.max(axis=1, keepdims=True), axis=1)
        correct[rows] = neighbor_labels[np.arange(first.size), first] == queries.labels[rows]

    # A block row also holds a k-by-k vote table.
    blocks = list(_row_blocks(queries.n_items, max(reference.n_items, k * k)))
    _on_lanes(blocks, classify_block, [(reference.n_items, np.float64)])
    return EvalReport(per_query=tuple(correct.tolist()), k=k, metadata={"exclude_self": exclude_self})


def class_prototypes(embedding_set: EmbeddingSet) -> EmbeddingSet:
    """Per-class centroids, one row per label, labels ascending.

    The rows are stably sorted by label once, so each class is one
    contiguous slice in its original row order: the same rows that a
    boolean mask selects, summed by the same ``np.add.reduce`` as their
    ``.mean(axis=0)``, then divided by the count.
    """
    if embedding_set.n_items == 0:
        raise TooFewItemsError("cannot build prototypes from an empty set")
    order = np.argsort(embedding_set.labels, kind="stable")
    labels = embedding_set.labels[order]
    rows = embedding_set.matrix[order]
    starts = np.flatnonzero(np.r_[True, labels[1:] != labels[:-1]])
    stops = np.r_[starts[1:], labels.size]
    sums = np.array([np.add.reduce(rows[a:b], axis=0) for a, b in zip(starts.tolist(), stops.tolist())])
    return EmbeddingSet(sums / (stops - starts)[:, None], labels[starts], embedding_set.modality)


def check_labels_covered(labels: np.ndarray, known: np.ndarray, message: str) -> None:
    """Raise MissingPrototypeError, filling ``message``'s ``{}`` with the labels not in ``known``."""
    # np.isin, since np.setdiff1d's plain np.unique imports numpy.ma.
    if not np.isin(labels, known).all():
        raise MissingPrototypeError(message.format(np.setdiff1d(labels, known).tolist()))


def check_class_table(table: EmbeddingSet, name: str) -> None:
    """Raise SpeciesMismatchError unless ``table`` holds one row per class, labels strictly ascending."""
    broken = np.flatnonzero(table.labels[1:] <= table.labels[:-1])
    if broken.size:
        raise SpeciesMismatchError(
            f"{name} must hold one row per class, labels strictly ascending; row {broken[0] + 1} is not"
        )


def nearest_prototype(queries: EmbeddingSet, prototypes: EmbeddingSet) -> Tuple[np.ndarray, np.ndarray]:
    """Predicted label and cosine confidence per query.

    ``prototypes`` is a per-class table (:func:`check_class_table`);
    cosine ties resolve to the lowest label value.
    """
    if prototypes.n_items == 0:
        raise EmptyGalleryError("no prototypes to classify against")
    check_class_table(prototypes, "prototypes")
    scores = similarity_matrix(queries, prototypes)
    best = np.argmax(scores, axis=1)
    return prototypes.labels[best], scores[np.arange(queries.n_items), best]


def zero_shot_classify(queries: EmbeddingSet, prototypes: EmbeddingSet) -> EvalReport:
    """Accuracy of nearest-prototype classification."""
    if queries.n_items == 0:
        raise TooFewItemsError("no queries to classify")
    check_labels_covered(queries.labels, prototypes.labels, "no prototype for labels {}")
    predicted, _ = nearest_prototype(queries, prototypes)
    per_query = tuple((predicted == queries.labels).astype(np.float64).tolist())
    return EvalReport(per_query=per_query, metadata={"n_prototypes": prototypes.n_items})
