"""Synthetic multimodal world with a known taxonomy.

The world simulates a biodiversity corpus: species organized in a
family > genus > species hierarchy, each observed through four channels.
Species ids are genus-major: species ``s`` belongs to genus
``s // species_per_genus``, and genus ``g`` to family
``g // genera_per_family``.

* ``teacher_text``: frozen teacher embeddings of species descriptions,
  ``variant_count`` prompt phrasings per species (variant 0 is the
  canonical common-name prompt used at evaluation time).
* ``images``: teacher embeddings of photographs, clustered tightly
  around the species' teacher-space centre.
* ``audio_features``: raw acoustic feature vectors in their own space,
  with per-coordinate observation noise. These are the student inputs.
* ``student_text``: embeddings of species names from a small student
  text encoder, in a third space unrelated to the teacher's.

A train/eval split side is a :class:`World` too: it shares the text
channels and holds a subset of the audio and image rows.

The split is drawn first, from the config alone: :func:`split_rows`
gives each side's row positions. :func:`generate_world` then draws every
row, or only the audio, image and teacher text rows it is given, each
bit-equal to the same row of the whole world, and the student text or
none of it. So a stage draws only the rows it reads, and drawing fewer
rows moves no bit of the rest.
``pipeline.prepare_world`` is the one place that turns the split into
sides.

Teacher-space scales are norm-relative (draws are scaled by 1/sqrt(d))
because rows in that space are unit-normalized; the raw audio feature
space is not normalized, so its noise is per-coordinate.

All randomness is drawn from per-entity counter-based streams, so any
row is reproducible from (seed, entity path) alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .embeddings import EmbeddingSet, Modality
from .errors import InvalidConfigError, TooFewItemsError, ZeroVectorError
from .rng import draw_streams

# Audio hierarchy geometry: species latents sit around a per-genus anchor
# at this fraction of the anchor scale. Together with sigma_audio this
# fixes the irreducible audio confusion rate between sibling species.
AUDIO_OFFSET_RATIO = 1.35

# Student text geometry: genus anchors are drawn at sigma_family and
# species offsets at sigma_genus, both norm-relative, giving sibling
# species a cosine of about 0.8 in the student text space.


def _check_buildable(rows: int, width: int, keys: str) -> None:
    """Refuse a float64 matrix NumPy cannot build: more than 2**63 - 1 bytes, in Python ints."""
    if 8 * rows * width > 2**63 - 1:
        raise InvalidConfigError(f"{keys} give a {rows} x {width} matrix, too large for any array")


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
        if self.seed < 0:
            raise InvalidConfigError(f"seed must be >= 0, got {self.seed}")
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
        # Each channel is one float64 matrix: so many rows per species, so wide.
        for per_species, width, keys in (
            (self.variant_count, self.d_teacher, "variant_count, d_teacher"),
            (self.images_per_species, self.d_teacher, "images_per_species, d_teacher"),
            (self.audio_per_species, self.d_student_in, "audio_per_species, d_student_in"),
            (1, self.d_student, "d_student"),
        ):
            rows = self.n_species * per_species
            _check_buildable(rows, width, f"n_families, genera_per_family, species_per_genus, {keys}")

    @property
    def n_genera(self) -> int:
        return self.n_families * self.genera_per_family

    @property
    def n_species(self) -> int:
        return self.n_families * self.genera_per_family * self.species_per_genus


@dataclass(frozen=True)
class World:
    """A generated world, or one side of its train/eval split.

    ``species_centres`` holds the noise-free unit teacher-space centre of
    each species; teacher text and image rows are noisy draws around it.
    Audio, image and teacher text rows are in ascending world position:
    all of them on a whole generated world, the drawn rows on a world
    drawn with row selections, and the side's audio and image rows on a
    split side. Centres are always whole, and student text is whole or
    holds no row.
    """

    config: WorldConfig
    species_centres: np.ndarray
    teacher_text: EmbeddingSet
    student_text: EmbeddingSet
    images: EmbeddingSet
    audio_features: EmbeddingSet

    @property
    def n_species(self) -> int:
        return self.config.n_species


def _gaussian_rows(seed: int, name: str, keys, dim: int) -> np.ndarray:
    """Row i is ``standard_normal(dim)`` of the stream ``(seed, name, *keys[i])``."""
    return draw_streams(np.empty((len(keys), dim)), seed, name, keys, "standard_normal", dim)


def _norm_relative_rows(seed: int, name: str, keys, sigma: float, dim: int) -> np.ndarray:
    """Gaussian rows whose expected norm is sigma, not sigma*sqrt(dim)."""
    return sigma * _gaussian_rows(seed, name, keys, dim) / math.sqrt(dim)


def _unit_rows(rows: np.ndarray, keys, what: str) -> np.ndarray:
    """Divide each row by its norm in place; ``keys`` name the rows in errors.

    ``row.dot(row)`` is the BLAS ``ddot`` that ``np.linalg.norm`` takes of
    a 1-D float64 vector, so each norm is the one-row norm, bit for bit.
    """
    norms = np.empty(rows.shape[0])
    for i, row in enumerate(rows):
        norms[i] = math.sqrt(row.dot(row))
        if norms[i] == 0.0:
            path = "/".join(str(part) for part in keys[i])
            raise ZeroVectorError(f"cannot normalize all-zero {what} {path}; sigmas too degenerate")
    rows /= norms[:, None]
    return rows


def generate_world(
    config: WorldConfig,
    image_rows: Optional[np.ndarray] = None,
    audio_rows: Optional[np.ndarray] = None,
    teacher_rows: Optional[np.ndarray] = None,
    with_student_text: bool = True,
) -> World:
    """Generate the world deterministically from its config.

    Each channel is drawn as one matrix, one keyed stream per row, and
    built with whole-matrix arithmetic that matches the per-row formulas
    element for element. ``image_rows``, ``audio_rows`` and
    ``teacher_rows`` (ascending positions) draw only those rows of the
    image, audio and teacher text channels, each bit-equal to the same
    row of the whole world, in that order; ``None`` draws them all. The
    world does not record which rows it holds: image row ``i`` is
    ``image_rows[i]``, and likewise for the other two. With
    ``with_student_text`` false the student text holds no row, and its
    streams are not drawn.
    """
    seed = config.seed
    d_t = config.d_teacher
    d_in = config.d_student_in
    n_species = config.n_species
    families = [(f,) for f in range(config.n_families)]
    genera = [(f, g) for f in range(config.n_families) for g in range(config.genera_per_family)]
    species = [(f, g, k) for f, g in genera for k in range(config.species_per_genus)]
    species_genus = np.repeat(np.arange(config.n_genera), config.species_per_genus)

    family_centres = _norm_relative_rows(seed, "family", families, config.sigma_family, d_t)
    genus_offsets = _norm_relative_rows(seed, "genus", genera, config.sigma_genus, d_t)
    genus_centres = np.repeat(family_centres, config.genera_per_family, axis=0) + genus_offsets
    species_offsets = _norm_relative_rows(seed, "species", species, config.sigma_species, d_t)
    centres = _unit_rows(genus_centres[species_genus] + species_offsets, species, "species centre")
    centres.setflags(write=False)

    def positions(rows: Optional[np.ndarray], per_species: int) -> np.ndarray:
        if rows is None:
            return np.arange(n_species * per_species, dtype=np.int64)
        return np.asarray(rows, dtype=np.int64)

    def around_centres(name: str, per_species: int, sigma: float, modality: Modality, rows) -> EmbeddingSet:
        # Row r is item r % per_species of species r // per_species.
        rows = positions(rows, per_species)
        keys = [divmod(r, per_species) for r in rows.tolist()]
        labels = rows // per_species
        noisy = centres[labels] + _norm_relative_rows(seed, name, keys, sigma, d_t)
        return EmbeddingSet(matrix=_unit_rows(noisy, keys, name), labels=labels, modality=modality)

    teacher_text = around_centres(
        "teacher_text", config.variant_count, config.sigma_variant, Modality.TEACHER_TEXT, teacher_rows
    )
    images = around_centres("image", config.images_per_species, config.sigma_image, Modality.IMAGE, image_rows)

    genus_keys = [(genus,) for genus in range(config.n_genera)]
    species_keys = [(sp,) for sp in range(n_species)]
    anchors = config.sigma_family * _gaussian_rows(seed, "audio_anchor", genus_keys, d_in)
    audio_offsets = AUDIO_OFFSET_RATIO * config.sigma_family * _gaussian_rows(
        seed, "audio_latent", species_keys, d_in
    )
    audio_latents = _unit_rows(anchors[species_genus] + audio_offsets, species_keys, "audio latent")
    # Clip r is clip r % audio_per_species of species r // audio_per_species.
    audio_rows = positions(audio_rows, config.audio_per_species)
    clip_keys = [divmod(r, config.audio_per_species) for r in audio_rows.tolist()]
    clip_species = audio_rows // config.audio_per_species
    audio = EmbeddingSet(
        matrix=audio_latents[clip_species] + config.sigma_audio * _gaussian_rows(seed, "audio", clip_keys, d_in),
        labels=clip_species,
        modality=Modality.AUDIO,
    )

    if with_student_text:
        student_anchors = _norm_relative_rows(
            seed, "student_anchor", genus_keys, config.sigma_family, config.d_student
        )
        student_offsets = _norm_relative_rows(
            seed, "student_text", species_keys, config.sigma_genus, config.d_student
        )
        student_rows = _unit_rows(student_anchors[species_genus] + student_offsets, species_keys, "student text")
        student_labels = np.arange(n_species, dtype=np.int64)
    else:
        student_rows, student_labels = np.empty((0, config.d_student)), np.empty(0, dtype=np.int64)
    student_text = EmbeddingSet(student_rows, student_labels, Modality.STUDENT_TEXT)

    return World(
        config=config,
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


class SideRows(NamedTuple):
    """One split side's rows, as ascending positions in the whole world."""

    audio: np.ndarray
    images: np.ndarray


def split_rows(config: WorldConfig, holdout_fraction: float, seed: int) -> Tuple[SideRows, SideRows]:
    """The (train, eval) rows of the audio and images, split per species.

    Every species keeps at least one item on each side. The split
    depends only on ``seed`` and the per-species item counts, so it is
    drawn from the config, before any row values.
    """
    if not (0.0 < holdout_fraction < 1.0):
        raise InvalidConfigError(f"holdout_fraction must be in (0, 1), got {holdout_fraction}")
    n_species = config.n_species

    def split(name: str, per_species: int, what: str) -> Tuple[np.ndarray, np.ndarray]:
        # Each species' eval items are the first n_eval of its permutation.
        n_eval = _split_counts(per_species, holdout_fraction, what)
        keys = [(sp,) for sp in range(n_species)]
        perms = np.empty((n_species, per_species), dtype=np.int64)
        draw_streams(perms, seed, name, keys, "permutation", per_species)
        held_out = np.zeros(perms.shape, dtype=bool)
        held_out[np.arange(n_species)[:, None], perms[:, :n_eval]] = True
        # Flat positions are species * per_species + item: ascending per species.
        return np.flatnonzero(~held_out), np.flatnonzero(held_out)

    train_audio, eval_audio = split("split_audio", config.audio_per_species, "audio")
    train_images, eval_images = split("split_image", config.images_per_species, "images")
    return SideRows(train_audio, train_images), SideRows(eval_audio, eval_images)
