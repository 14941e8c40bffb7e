"""Comparison baselines for the distilled student.

Three reference systems, each consuming only artifacts the main method
also has access to:

* ``random_projection``: audio features pushed through a fixed random
  matrix into teacher space. Lower bound; no learning at all.
* ``text_mapping``: a small nonlinear map from student text space to
  teacher text space, trained on per-species text pairs only (no audio).
  It is a layer-table MLP (``map1`` + ReLU, ``map2``), started from
  :func:`xmodal.trainer.mlp_init` and trained by the adapter's own loop,
  :func:`xmodal.trainer.fit`, with each species paired with its canonical
  teacher row; it reports through the adapter's ``TrainReport``. ``train``
  fits it once, and ``eval`` scores the mapped table ``train`` wrote. At
  inference an audio clip is classified to a species with audio-space
  class prototypes and gets the gallery's cosines with that species'
  mapped text row: one score row per distinct predicted species.
* ``cascaded_zero_shot``: two independent zero-shot classifiers (audio
  vs audio-space prototypes, image vs teacher text prototypes) chained
  by scoring each image with the cosine between the two predicted class
  prototypes. A misclassification in either stage propagates to the
  ranking. Every score is a cell of the (predicted classes x classes)
  cosine table, handed over as minus the cell's dense rank in its row,
  a small signed integer that NumPy radix-sorts; equal ranks are
  exactly equal cosines, so the order and its ties are the float sort's.

Both classify-then-look-up baselines score and do not rank: each returns
one ``RankedList``, a score row per distinct predicted class and, for
each clip, the row of its class.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .embeddings import EmbeddingSet, normalize_rows, similarity_matrix
from .errors import SpeciesMismatchError
from .evaluation import RankedList, check_class_table, check_labels_covered, nearest_prototype
from .rng import rng_for
from .trainer import Layer, TrainConfig, TrainReport, fit, mlp_forward, mlp_init


def random_projection_baseline(audio_features: EmbeddingSet, d_teacher: int, seed: int) -> EmbeddingSet:
    """Audio rows times a fixed Gaussian matrix, then row-normalized.

    Matrix entries are drawn with variance 1/d_teacher, keyed by the
    seed alone, so the projection is deterministic and shared by all
    rows.
    """
    matrix = rng_for(seed, "random_projection").standard_normal(
        (d_teacher, audio_features.dim)
    ) / math.sqrt(d_teacher)
    projected = audio_features.matrix @ matrix.T
    return normalize_rows(EmbeddingSet(projected, audio_features.labels, audio_features.modality))


def _text_map_layers(d_student: int, d_teacher: int) -> Tuple[Layer, ...]:
    # Hidden width equals d_teacher: minimal nonlinearity between the spaces.
    return (("map1", d_student, d_teacher, True), ("map2", d_teacher, d_teacher, False))


def text_mapping_baseline(
    student_text: EmbeddingSet,
    teacher_text: EmbeddingSet,
    train_config: TrainConfig,
) -> Tuple[TrainReport, EmbeddingSet]:
    """Fit the student-text to teacher-text map on per-species pairs.

    Both text sets are per-class tables of the same species (for the
    teacher, the canonical prompt), and there must be at least two
    species. Training never touches audio. Returns the training report,
    whose ``final_params`` are the map's weights, and the mapped table:
    the mapped student rows, with the student labels.
    """
    check_class_table(student_text, "student text")
    check_class_table(teacher_text, "teacher text")
    if not np.array_equal(student_text.labels, teacher_text.labels):
        raise SpeciesMismatchError("student and teacher text sets must cover the same species")

    layers = _text_map_layers(student_text.dim, teacher_text.dim)
    own_row = np.arange(student_text.n_items)
    init = mlp_init(layers, train_config.seed, "textmap")
    report = fit(
        layers, init, student_text.matrix, teacher_text.matrix, lambda _: own_row, train_config, "textmap_shuffle"
    )
    mapped, _ = mlp_forward(layers, report.final_params, student_text.matrix)
    return report, EmbeddingSet(mapped, student_text.labels, student_text.modality)


def text_mapping_rankings(
    table: EmbeddingSet,
    audio: EmbeddingSet,
    audio_prototypes: EmbeddingSet,
    images: EmbeddingSet,
) -> RankedList:
    """Score the images for each audio clip via the mapped-text route.

    Each clip is classified to a species with the audio-space prototypes
    and scores the images by their cosine with that species' row of
    ``table``, the mapped table that :func:`text_mapping_baseline`
    returns: one row per distinct predicted species, ascending.
    """
    check_class_table(table, "mapped table")
    predicted, _ = nearest_prototype(audio, audio_prototypes)
    check_labels_covered(predicted, table.labels, "no mapped text for predicted labels {}")
    classes, clip_class = np.unique(predicted, return_inverse=True)
    scores = similarity_matrix(table.take(np.searchsorted(table.labels, classes)), images)
    return RankedList(clip_class, scores, np.arange(images.n_items))


def cascaded_zero_shot_baseline(
    audio: EmbeddingSet,
    images: EmbeddingSet,
    student_prototypes: EmbeddingSet,
    teacher_prototypes: EmbeddingSet,
) -> RankedList:
    """Score images per predicted audio class through two zero-shot classifiers.

    score(image | clip) = cosine between the teacher prototypes of the
    clip's predicted class and the image's predicted class. Ties break
    by the image's own classification confidence (descending), then by
    gallery index: the columns follow that order. One score row per
    distinct predicted class, ascending.
    """
    check_labels_covered(audio.labels, teacher_prototypes.labels, "no teacher prototype for audio labels {}")
    check_labels_covered(images.labels, teacher_prototypes.labels, "no teacher prototype for image labels {}")
    check_labels_covered(audio.labels, student_prototypes.labels, "no student prototype for audio labels {}")
    check_labels_covered(
        student_prototypes.labels, teacher_prototypes.labels, "student prototype labels {} unknown to the teacher"
    )

    audio_pred, _ = nearest_prototype(audio, student_prototypes)
    image_pred, image_conf = nearest_prototype(images, teacher_prototypes)

    proto_cos = similarity_matrix(teacher_prototypes, teacher_prototypes)
    classes, clip_class = np.unique(np.searchsorted(teacher_prototypes.labels, audio_pred), return_inverse=True)
    # Gallery presorted by (-confidence, index): a stable sort of each
    # class's scores in this order breaks score ties exactly that way.
    presorted = np.argsort(-image_conf, kind="stable")
    image_class = np.searchsorted(teacher_prototypes.labels, image_pred[presorted])
    # An image's score is one cell of its predicted class's row of the
    # cosine table, so it sorts as minus that cell's dense rank in the
    # row: equal values (+-0.0 too, and every NaN) share one, and NaN
    # ranks last, as in a float sort. Small signed keys sort by radix;
    # float cosines full of ties would take a timsort. (Any kind of sort
    # of the row gives the same ranks; the stable one is the float sort
    # that evaluation already runs, so no other sort code is paged in.)
    negated = -proto_cos[classes]
    by_value = np.argsort(negated, axis=1, kind="stable")
    ordered = np.take_along_axis(negated, by_value, axis=1)
    steps = (ordered[:, 1:] != ordered[:, :-1]) & ~np.isnan(ordered[:, :-1])
    ranks = np.zeros(negated.shape, dtype=np.min_scalar_type(-negated.shape[1]))
    np.cumsum(steps, axis=1, dtype=ranks.dtype, out=ranks[:, 1:])
    scores = np.empty_like(ranks)
    np.put_along_axis(scores, by_value, -ranks, axis=1)
    return RankedList(clip_class, scores[:, image_class], presorted)
