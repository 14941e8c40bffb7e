"""Comparison baselines for the distilled student.

Three reference systems, each consuming only artifacts the main method
also has access to:

* ``random_projection``: audio features pushed through a fixed random
  matrix into teacher space. Lower bound; no learning at all.
* ``text_mapping``: a small nonlinear map from student text space to
  teacher text space, trained on per-species text pairs only (no audio).
  At inference an audio clip is classified to a species with audio-space
  class prototypes, then represented by its mapped species text.
* ``cascaded_zero_shot``: two independent zero-shot classifiers (audio
  vs audio-space prototypes, image vs teacher text prototypes) chained
  by scoring each image with the cosine between the two predicted class
  prototypes. A misclassification in either stage propagates to the
  ranking.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .embeddings import EmbeddingSet, normalize_rows, similarity_matrix
from .errors import (
    MissingPrototypeError,
    NonFiniteLossError,
    SpeciesMismatchError,
)
from .evaluation import RankedList, nearest_prototype
from .objective import distill_loss
from .rng import rng_for
from .trainer import TrainConfig, make_optimizer, xavier_uniform

__all__ = [
    "BaselineKind",
    "TextMappingReport",
    "random_projection_baseline",
    "mapping_forward",
    "text_mapping_baseline",
    "text_mapping_audio_embeddings",
    "cascaded_zero_shot_baseline",
]

Params = Dict[str, np.ndarray]


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
    return normalize_rows(
        EmbeddingSet(projected, audio_features.labels, audio_features.modality, normalized=False)
    )


@dataclass(frozen=True)
class TextMappingReport:
    """Trained student-text-to-teacher map plus its species table."""

    params: Params
    loss_curve: Tuple[float, ...]
    mapped_prototypes: EmbeddingSet


def mapping_forward(params: Params, rows: np.ndarray) -> Tuple[np.ndarray, dict]:
    """One-hidden-layer ReLU map; returns output rows and a cache."""
    x = np.asarray(rows, dtype=np.float64)
    pre = x @ params["map1_w"].T + params["map1_b"]
    hidden = np.maximum(pre, 0.0)
    out = hidden @ params["map2_w"].T + params["map2_b"]
    return out, {"x": x, "pre": pre, "hidden": hidden}


def _mapping_backward(params: Params, cache: dict, grad_out: np.ndarray) -> Params:
    grads: Params = {
        "map2_w": grad_out.T @ cache["hidden"],
        "map2_b": grad_out.sum(axis=0),
    }
    d_hidden = grad_out @ params["map2_w"]
    d_hidden = np.where(cache["pre"] > 0.0, d_hidden, 0.0)
    grads["map1_w"] = d_hidden.T @ cache["x"]
    grads["map1_b"] = d_hidden.sum(axis=0)
    return grads


def _init_mapping(d_student: int, d_teacher: int, seed: int) -> Params:
    # Hidden width equals d_teacher: minimal nonlinearity between the spaces.
    return {
        "map1_w": xavier_uniform(rng_for(seed, "textmap", "map1_w"), d_teacher, d_student),
        "map1_b": np.zeros(d_teacher, dtype=np.float64),
        "map2_w": xavier_uniform(rng_for(seed, "textmap", "map2_w"), d_teacher, d_teacher),
        "map2_b": np.zeros(d_teacher, dtype=np.float64),
    }


def text_mapping_baseline(
    student_text: EmbeddingSet,
    teacher_text: EmbeddingSet,
    train_config: TrainConfig,
    initial_params: Optional[Params] = None,
) -> TextMappingReport:
    """Fit the student-text to teacher-text map on per-species pairs.

    ``teacher_text`` must hold exactly one row per species (the
    canonical prompt). Training never touches audio. The returned
    ``mapped_prototypes`` are the mapped student rows, labels ascending.
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

    n = student_sorted.n_items
    params = (
        {k: np.array(v, dtype=np.float64) for k, v in initial_params.items()}
        if initial_params is not None
        else _init_mapping(student_text.dim, teacher_text.dim, train_config.seed)
    )
    step_fn = make_optimizer(train_config, params)

    loss_curve: List[float] = []
    step = 0
    for epoch in range(train_config.epochs):
        perm = rng_for(train_config.seed, "textmap_shuffle", epoch).permutation(n)
        epoch_losses: List[float] = []
        for start in range(0, n, train_config.batch_size):
            batch = perm[start : start + train_config.batch_size]
            if batch.size < 2:
                continue
            out, cache = mapping_forward(params, student_sorted.matrix[batch])
            result = distill_loss(out, teacher_sorted.matrix[batch], train_config.tau)
            if not math.isfinite(result.loss):
                raise NonFiniteLossError(step)
            grads = _mapping_backward(params, cache, result.grad_student)
            step_fn(params, grads)
            step += 1
            epoch_losses.append(result.loss)
        if epoch_losses:
            loss_curve.append(sum(epoch_losses) / len(epoch_losses))

    mapped, _ = mapping_forward(params, student_sorted.matrix)
    prototypes = EmbeddingSet(mapped, student_sorted.labels, student_text.modality, normalized=False)
    return TextMappingReport(params=params, loss_curve=tuple(loss_curve), mapped_prototypes=prototypes)


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
    return EmbeddingSet(table.matrix[positions], audio.labels, audio.modality, normalized=False)


def cascaded_zero_shot_baseline(
    audio: EmbeddingSet,
    images: EmbeddingSet,
    student_prototypes: EmbeddingSet,
    teacher_prototypes: EmbeddingSet,
) -> List[RankedList]:
    """Rank images per audio clip through two zero-shot classifiers.

    score(image | clip) = cosine between the teacher prototypes of the
    clip's predicted class and the image's predicted class. Ties break
    by the image's own classification confidence (descending), then by
    gallery index. Clips with the same predicted class share one
    read-only ranking.
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
    image_pos = np.searchsorted(teacher_sorted.labels, image_pred)
    # A clip's ranking depends only on its predicted class: rank the
    # gallery once per predicted class and share that ranking.
    classes, clip_class = np.unique(
        np.searchsorted(teacher_sorted.labels, audio_pred), return_inverse=True
    )
    scores = proto_cos[classes[:, None], image_pos]
    shape = scores.shape
    rankings = np.lexsort(
        (np.broadcast_to(np.arange(images.n_items), shape), np.broadcast_to(-image_conf, shape), -scores),
        axis=-1,
    )
    ranked_scores = np.take_along_axis(scores, rankings, axis=-1)
    # Clips of one class share these rows, so none of them may write.
    rankings.flags.writeable = False
    ranked_scores.flags.writeable = False
    return [
        RankedList(query_index=i, gallery_order=rankings[c], scores=ranked_scores[c])
        for i, c in enumerate(clip_class)
    ]
