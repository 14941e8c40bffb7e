"""Synthetic multimodal world with a known taxonomy.

The world simulates a biodiversity corpus: species organized in a
family > genus > species hierarchy, each observed through four channels.

* ``teacher_text``: frozen teacher embeddings of species descriptions,
  ``variant_count`` prompt phrasings per species (variant 0 is the
  canonical common-name prompt used at evaluation time).
* ``images``: teacher embeddings of photographs, clustered tightly
  around the species' teacher-space centre.
* ``audio_features``: raw acoustic feature vectors in their own space,
  with per-coordinate observation noise. These are the student inputs.
* ``student_text``: embeddings of species names from a small student
  text encoder, in a third space unrelated to the teacher's.

Teacher-space scales are norm-relative (draws are scaled by 1/sqrt(d))
because rows in that space are unit-normalized; the raw audio feature
space is not normalized, so its noise is per-coordinate.

All randomness is drawn from per-entity counter-based streams, so any
row is reproducible from (seed, entity path) alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Tuple

import numpy as np

from .embeddings import EmbeddingSet, Modality, TaxonLabel
from .errors import InvalidConfigError, TooFewItemsError, ZeroVectorError
from .rng import rng_for

__all__ = ["WorldConfig", "World", "WorldView", "generate_world", "world_split"]

# Audio hierarchy geometry: species latents sit around a per-genus anchor
# at this fraction of the anchor scale. Together with sigma_audio this
# fixes the irreducible audio confusion rate between sibling species.
AUDIO_OFFSET_RATIO = 1.35

# Student text geometry: genus anchors are drawn at sigma_family and
# species offsets at sigma_genus, both norm-relative, giving sibling
# species a cosine of about 0.8 in the student text space.


@dataclass(frozen=True)
class WorldConfig:
    """Full specification of a synthetic world."""

    seed: int = 7
    n_families: int = 3
    genera_per_family: int = 4
    species_per_genus: int = 4
    d_teacher: int = 32
    d_student_in: int = 20
    d_student: int = 24
    variant_count: int = 3
    audio_per_species: int = 20
    images_per_species: int = 10
    sigma_family: float = 1.0
    sigma_genus: float = 0.5
    sigma_species: float = 0.25
    sigma_variant: float = 0.05
    sigma_image: float = 0.15
    sigma_audio: float = 0.20

    def __post_init__(self) -> None:
        for name in ("n_families", "genera_per_family", "species_per_genus"):
            if getattr(self, name) < 1:
                raise InvalidConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.n_species < 2:
            raise InvalidConfigError("world must contain at least 2 species")
        for name in ("d_teacher", "d_student_in", "d_student"):
            if getattr(self, name) < 1:
                raise InvalidConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.variant_count < 2:
            raise InvalidConfigError(f"variant_count must be >= 2, got {self.variant_count}")
        if self.audio_per_species < 1 or self.images_per_species < 1:
            raise InvalidConfigError("need at least one audio clip and one image per species")
        for name in (
            "sigma_family",
            "sigma_genus",
            "sigma_species",
            "sigma_variant",
            "sigma_image",
            "sigma_audio",
        ):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise InvalidConfigError(f"{name} must be a finite non-negative real, got {value}")
        if self.sigma_family <= 0:
            raise InvalidConfigError("sigma_family must be positive; the hierarchy needs a top level")

    @property
    def n_genera(self) -> int:
        return self.n_families * self.genera_per_family

    @property
    def n_species(self) -> int:
        return self.n_families * self.genera_per_family * self.species_per_genus


@dataclass(frozen=True)
class World:
    """Generated world: embedding sets for all four channels plus labels.

    ``species_centres`` holds the noise-free unit teacher-space centre of
    each species; teacher text and image rows are noisy draws around it.
    """

    config: WorldConfig
    labels: Tuple[TaxonLabel, ...]
    species_centres: np.ndarray
    teacher_text: EmbeddingSet
    student_text: EmbeddingSet
    images: EmbeddingSet
    audio_features: EmbeddingSet

    @property
    def n_species(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class WorldView:
    """One side of a train/eval split.

    Text channels are shared between views; only audio and images are
    partitioned. ``audio_indices``/``image_indices`` give each row's
    position in the parent world's arrays.
    """

    config: WorldConfig
    labels: Tuple[TaxonLabel, ...]
    teacher_text: EmbeddingSet
    student_text: EmbeddingSet
    images: EmbeddingSet
    audio_features: EmbeddingSet
    audio_indices: np.ndarray
    image_indices: np.ndarray


def _norm_relative(rng: np.random.Generator, sigma: float, dim: int) -> np.ndarray:
    """Gaussian draw whose expected norm is sigma, not sigma*sqrt(dim)."""
    return sigma * rng.standard_normal(dim) / math.sqrt(dim)


def _unit(vector: np.ndarray, what: str) -> np.ndarray:
    norm = float(np.linalg.norm(vector))
    if norm == 0.0:
        raise ZeroVectorError(f"cannot normalize all-zero {what}; sigmas too degenerate")
    return vector / norm


def generate_world(config: WorldConfig) -> World:
    """Generate the full world deterministically from its config."""
    seed = config.seed
    d_t = config.d_teacher
    d_in = config.d_student_in
    n_species = config.n_species

    labels = []
    centres = np.empty((n_species, d_t), dtype=np.float64)
    s = 0
    for f in range(config.n_families):
        family_center = _norm_relative(rng_for(seed, "family", f), config.sigma_family, d_t)
        for g in range(config.genera_per_family):
            genus_center = family_center + _norm_relative(
                rng_for(seed, "genus", f, g), config.sigma_genus, d_t
            )
            for k in range(config.species_per_genus):
                raw = genus_center + _norm_relative(
                    rng_for(seed, "species", f, g, k), config.sigma_species, d_t
                )
                centres[s] = _unit(raw, f"centre of species {s}")
                labels.append(
                    TaxonLabel(
                        family_id=f,
                        genus_id=f * config.genera_per_family + g,
                        species_id=s,
                    )
                )
                s += 1
    centres.setflags(write=False)

    teacher_rows = np.empty((n_species * config.variant_count, d_t), dtype=np.float64)
    teacher_labels = np.empty(teacher_rows.shape[0], dtype=np.int64)
    for sp in range(n_species):
        for v in range(config.variant_count):
            row = sp * config.variant_count + v
            noise = _norm_relative(rng_for(seed, "teacher_text", sp, v), config.sigma_variant, d_t)
            teacher_rows[row] = _unit(centres[sp] + noise, f"teacher text {sp}/{v}")
            teacher_labels[row] = sp
    teacher_text = EmbeddingSet(
        matrix=teacher_rows,
        labels=teacher_labels,
        modality=Modality.TEACHER_TEXT,
        normalized=True,
    )

    image_rows = np.empty((n_species * config.images_per_species, d_t), dtype=np.float64)
    image_labels = np.empty(image_rows.shape[0], dtype=np.int64)
    for sp in range(n_species):
        for i in range(config.images_per_species):
            row = sp * config.images_per_species + i
            noise = _norm_relative(rng_for(seed, "image", sp, i), config.sigma_image, d_t)
            image_rows[row] = _unit(centres[sp] + noise, f"image {sp}/{i}")
            image_labels[row] = sp
    images = EmbeddingSet(
        matrix=image_rows,
        labels=image_labels,
        modality=Modality.IMAGE,
        normalized=True,
    )

    anchors = np.empty((config.n_genera, d_in), dtype=np.float64)
    for genus in range(config.n_genera):
        anchors[genus] = config.sigma_family * rng_for(seed, "audio_anchor", genus).standard_normal(d_in)
    audio_latents = np.empty((n_species, d_in), dtype=np.float64)
    for sp in range(n_species):
        offset = (
            AUDIO_OFFSET_RATIO
            * config.sigma_family
            * rng_for(seed, "audio_latent", sp).standard_normal(d_in)
        )
        audio_latents[sp] = _unit(anchors[labels[sp].genus_id] + offset, f"audio latent {sp}")
    audio_rows = np.empty((n_species * config.audio_per_species, d_in), dtype=np.float64)
    audio_labels = np.empty(audio_rows.shape[0], dtype=np.int64)
    for sp in range(n_species):
        for j in range(config.audio_per_species):
            row = sp * config.audio_per_species + j
            noise = config.sigma_audio * rng_for(seed, "audio", sp, j).standard_normal(d_in)
            audio_rows[row] = audio_latents[sp] + noise
            audio_labels[row] = sp
    audio = EmbeddingSet(
        matrix=audio_rows,
        labels=audio_labels,
        modality=Modality.AUDIO,
        normalized=False,
    )

    student_rows = np.empty((n_species, config.d_student), dtype=np.float64)
    genus_anchor_cache: dict = {}
    for sp in range(n_species):
        genus = labels[sp].genus_id
        if genus not in genus_anchor_cache:
            genus_anchor_cache[genus] = _norm_relative(
                rng_for(seed, "student_anchor", genus), config.sigma_family, config.d_student
            )
        offset = _norm_relative(rng_for(seed, "student_text", sp), config.sigma_genus, config.d_student)
        student_rows[sp] = _unit(genus_anchor_cache[genus] + offset, f"student text {sp}")
    student_text = EmbeddingSet(
        matrix=student_rows,
        labels=np.arange(n_species, dtype=np.int64),
        modality=Modality.STUDENT_TEXT,
        normalized=True,
    )

    return World(
        config=config,
        labels=tuple(labels),
        species_centres=centres,
        teacher_text=teacher_text,
        student_text=student_text,
        images=images,
        audio_features=audio,
    )


def _split_counts(n_items: int, holdout_fraction: float, what: str) -> int:
    """Eval-side count for one species: round(f*n), clamped to [1, n-1]."""
    if n_items < 2:
        raise TooFewItemsError(f"cannot split {what}: need at least 2 items per species, got {n_items}")
    n_eval = int(math.floor(holdout_fraction * n_items + 0.5))
    return min(max(n_eval, 1), n_items - 1)


def world_split(world: World, holdout_fraction: float, seed: int) -> Tuple[WorldView, WorldView]:
    """Split audio and images per species into (train, eval) views.

    Every species keeps at least one item on each side. Text channels
    are shared by both views. The split depends only on ``seed`` and the
    per-species item counts, not on the embedding values.
    """
    if not (0.0 < holdout_fraction < 1.0):
        raise InvalidConfigError(f"holdout_fraction must be in (0, 1), got {holdout_fraction}")
    config = world.config

    train_audio_idx, eval_audio_idx = [], []
    for sp in range(world.n_species):
        base = sp * config.audio_per_species
        n_eval = _split_counts(config.audio_per_species, holdout_fraction, "audio")
        perm = rng_for(seed, "split_audio", sp).permutation(config.audio_per_species)
        chosen = set(perm[:n_eval].tolist())
        eval_audio_idx.extend(base + j for j in sorted(chosen))
        train_audio_idx.extend(base + j for j in range(config.audio_per_species) if j not in chosen)

    train_image_idx, eval_image_idx = [], []
    for sp in range(world.n_species):
        base = sp * config.images_per_species
        n_eval = _split_counts(config.images_per_species, holdout_fraction, "images")
        perm = rng_for(seed, "split_image", sp).permutation(config.images_per_species)
        chosen = set(perm[:n_eval].tolist())
        eval_image_idx.extend(base + j for j in sorted(chosen))
        train_image_idx.extend(base + j for j in range(config.images_per_species) if j not in chosen)

    def view(audio_idx, image_idx) -> WorldView:
        audio_idx = np.asarray(audio_idx, dtype=np.int64)
        image_idx = np.asarray(image_idx, dtype=np.int64)
        return WorldView(
            config=config,
            labels=world.labels,
            teacher_text=world.teacher_text,
            student_text=world.student_text,
            images=world.images.take(image_idx),
            audio_features=world.audio_features.take(audio_idx),
            audio_indices=audio_idx,
            image_indices=image_idx,
        )

    return view(train_audio_idx, train_image_idx), view(eval_audio_idx, eval_image_idx)
