"""Comparison baselines for the distilled student.

Three reference systems, each consuming only artifacts the main method
also has access to:

* ``random_projection``: audio features pushed through a fixed random
  matrix into teacher space. Lower bound; no learning at all.
* ``text_mapping``: a small nonlinear map from student text space to
  teacher text space, trained on per-species text pairs only (no audio).
  It is a layer-table MLP (``map1`` + ReLU, ``map2``) trained by the
  adapter's own loop, :func:`xmodal.trainer.fit`, with each species paired
  with its canonical teacher row. At inference an audio clip is classified
  to a species with audio-space class prototypes, then represented by its
  mapped species text.
* ``cascaded_zero_shot``: two independent zero-shot classifiers (audio
  vs audio-space prototypes, image vs teacher text prototypes) chained
  by scoring each image with the cosine between the two predicted class
  prototypes. A misclassification in either stage propagates to the
  ranking. A clip's ranking depends only on its predicted class, so the
  gallery is ranked once per distinct predicted class and that one
  ``RankedList`` serves all of the class's clips.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .embeddings import EmbeddingSet, normalize_rows, similarity_matrix
from .errors import MissingPrototypeError, SpeciesMismatchError
from .evaluation import RankedList, nearest_prototype
from .rng import rng_for
from .trainer import Layer, Params, TrainConfig, fit, mlp_forward

__all__ = [
    "BaselineKind",
    "TextMappingReport",
    "random_projection_baseline",
    "text_mapping_baseline",
    "text_mapping_audio_embeddings",
    "cascaded_zero_shot_baseline",
]

class BaselineKind(enum.Enum):
    RANDOM_PROJECTION = "random_projection"
    TEXT_MAPPING = "text_mapping"
    CASCADED_ZERO_SHOT = "cascaded_zero_shot"


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


@dataclass(frozen=True)
class TextMappingReport:
    """Trained student-text-to-teacher map plus its species table."""

    params: Params
    loss_curve: Tuple[float, ...]
    mapped_prototypes: EmbeddingSet


def _text_map_layers(d_student: int, d_teacher: int) -> Tuple[Layer, ...]:
    # Hidden width equals d_teacher: minimal nonlinearity between the spaces.
    return (("map1", d_student, d_teacher, True), ("map2", d_teacher, d_teacher, False))


def text_mapping_baseline(
    student_text: EmbeddingSet,
    teacher_text: EmbeddingSet,
    train_config: TrainConfig,
) -> TextMappingReport:
    """Fit the student-text to teacher-text map on per-species pairs.

    ``teacher_text`` must hold exactly one row per species (the
    canonical prompt), and there must be at least two species. Training
    never touches audio. The returned ``mapped_prototypes`` are the
    mapped student rows, labels ascending.
    """
    student_order = np.argsort(student_text.labels, kind="stable")
    teacher_order = np.argsort(teacher_text.labels, kind="stable")
    student_sorted = student_text.take(student_order)
    teacher_sorted = teacher_text.take(teacher_order)
    if not np.array_equal(student_sorted.labels, teacher_sorted.labels):
        raise SpeciesMismatchError(
            "student and teacher text sets must cover the same species exactly once each"
        )
    if np.unique(student_sorted.labels).size != student_sorted.n_items:
        raise SpeciesMismatchError("text sets must have exactly one row per species")

    layers = _text_map_layers(student_text.dim, teacher_text.dim)
    own_row = np.arange(student_sorted.n_items)
    report = fit(
        layers, student_sorted.matrix, teacher_sorted.matrix, lambda _: own_row, train_config, "textmap", "textmap_shuffle"
    )
    mapped, _ = mlp_forward(layers, report.final_params, student_sorted.matrix)
    prototypes = EmbeddingSet(mapped, student_sorted.labels, student_text.modality)
    return TextMappingReport(report.final_params, report.loss_curve, prototypes)


def text_mapping_audio_embeddings(
    report: TextMappingReport,
    audio: EmbeddingSet,
    audio_prototypes: EmbeddingSet,
) -> EmbeddingSet:
    """Teacher-space rows for audio clips via the mapped-text route.

    Each clip is classified to a species with the audio-space prototypes
    and represented by that species' mapped text embedding.
    """
    predicted, _ = nearest_prototype(audio, audio_prototypes)
    table = report.mapped_prototypes
    missing = np.setdiff1d(np.unique(predicted), table.labels)
    if missing.size:
        raise MissingPrototypeError(f"no mapped text for predicted labels {missing.tolist()}")
    positions = np.searchsorted(table.labels, predicted)
    return EmbeddingSet(table.matrix[positions], audio.labels, audio.modality)


def cascaded_zero_shot_baseline(
    audio: EmbeddingSet,
    images: EmbeddingSet,
    student_prototypes: EmbeddingSet,
    teacher_prototypes: EmbeddingSet,
) -> List[RankedList]:
    """Rank images per predicted audio class through two zero-shot classifiers.

    score(image | clip) = cosine between the teacher prototypes of the
    clip's predicted class and the image's predicted class. Ties break
    by the image's own classification confidence (descending), then by
    gallery index. A clip's ranking depends only on its predicted class,
    so one ``RankedList`` is returned per distinct predicted class, in
    ascending label order, holding the clips predicted as that class.
    """
    for what, labels in (("audio", audio.labels), ("image", images.labels)):
        missing = np.setdiff1d(np.unique(labels), teacher_prototypes.labels)
        if missing.size:
            raise MissingPrototypeError(f"no teacher prototype for {what} labels {missing.tolist()}")
    missing = np.setdiff1d(np.unique(audio.labels), student_prototypes.labels)
    if missing.size:
        raise MissingPrototypeError(f"no student prototype for audio labels {missing.tolist()}")
    missing = np.setdiff1d(student_prototypes.labels, teacher_prototypes.labels)
    if missing.size:
        raise MissingPrototypeError(f"student prototype labels {missing.tolist()} unknown to the teacher")

    audio_pred, _ = nearest_prototype(audio, student_prototypes)
    image_pred, image_conf = nearest_prototype(images, teacher_prototypes)

    order = np.argsort(teacher_prototypes.labels, kind="stable")
    teacher_sorted = teacher_prototypes.take(order)
    proto_cos = similarity_matrix(teacher_sorted, teacher_sorted)
    classes, clip_class = np.unique(
        np.searchsorted(teacher_sorted.labels, audio_pred), return_inverse=True
    )
    # Gallery presorted by (-confidence, index): a stable sort of each
    # class's scores in this order breaks score ties exactly that way.
    presorted = np.argsort(-image_conf, kind="stable")
    scores = proto_cos[classes[:, None], np.searchsorted(teacher_sorted.labels, image_pred[presorted])]
    within = np.argsort(-scores, axis=1, kind="stable")
    rankings = presorted[within]
    ranked_scores = np.take_along_axis(scores, within, axis=1)
    # Clips grouped by class, ascending within each group.
    clips = np.split(np.argsort(clip_class, kind="stable"), np.cumsum(np.bincount(clip_class))[:-1])
    return [
        RankedList(query_indices=clips[c], gallery_order=rankings[c], scores=ranked_scores[c])
        for c in range(classes.size)
    ]
