"""World generation: hierarchy geometry, determinism, splits."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmodal import (
    InvalidConfigError,
    ZeroVectorError,
    Modality,
    TooFewItemsError,
    WorldConfig,
    generate_world,
    split_rows,
)
from xmodal.rng import rng_for
from xmodal import world as world_module
from xmodal.world import AUDIO_OFFSET_RATIO

from conftest import SMALL_WORLD, assert_unit_rows


# -- per-row reference ------------------------------------------------------------
#
# The generator and the split used to build every row from its own fresh
# ``rng_for`` stream, normalized with ``np.linalg.norm``. These loops keep
# that form as the reference the matrix form must equal bit for bit.


def reference_world(c):
    def normal(dim, *path):
        return rng_for(c.seed, *path).standard_normal(dim)

    def norm_relative(sigma, dim, *path):
        return sigma * normal(dim, *path) / math.sqrt(dim)

    def unit(vector):
        return vector / float(np.linalg.norm(vector))

    d_t, d_in, d_s = c.d_teacher, c.d_student_in, c.d_student
    centres = []
    for f in range(c.n_families):
        family = norm_relative(c.sigma_family, d_t, "family", f)
        for g in range(c.genera_per_family):
            genus = family + norm_relative(c.sigma_genus, d_t, "genus", f, g)
            for k in range(c.species_per_genus):
                centres.append(unit(genus + norm_relative(c.sigma_species, d_t, "species", f, g, k)))
    teacher = [
        unit(centres[sp] + norm_relative(c.sigma_variant, d_t, "teacher_text", sp, v))
        for sp in range(c.n_species)
        for v in range(c.variant_count)
    ]
    images = [
        unit(centres[sp] + norm_relative(c.sigma_image, d_t, "image", sp, i))
        for sp in range(c.n_species)
        for i in range(c.images_per_species)
    ]
    genus_of = [sp // c.species_per_genus for sp in range(c.n_species)]
    anchors = [c.sigma_family * normal(d_in, "audio_anchor", g) for g in range(c.n_genera)]
    latents = [
        unit(anchors[genus_of[sp]] + AUDIO_OFFSET_RATIO * c.sigma_family * normal(d_in, "audio_latent", sp))
        for sp in range(c.n_species)
    ]
    audio = [
        latents[sp] + c.sigma_audio * normal(d_in, "audio", sp, j)
        for sp in range(c.n_species)
        for j in range(c.audio_per_species)
    ]
    student_anchors = [norm_relative(c.sigma_family, d_s, "student_anchor", g) for g in range(c.n_genera)]
    student = [
        unit(student_anchors[genus_of[sp]] + norm_relative(c.sigma_genus, d_s, "student_text", sp))
        for sp in range(c.n_species)
    ]
    return {
        "species_centres": centres,
        "teacher_text": teacher,
        "images": images,
        "audio_features": audio,
        "student_text": student,
    }


def reference_split(n_species, per_species, n_eval, seed, name):
    train, held_out = [], []
    for sp in range(n_species):
        chosen = set(rng_for(seed, name, sp).permutation(per_species)[:n_eval].tolist())
        held_out.extend(sp * per_species + j for j in sorted(chosen))
        train.extend(sp * per_species + j for j in range(per_species) if j not in chosen)
    return train, held_out


WORLD_CONFIGS = st.builds(
    WorldConfig,
    seed=st.integers(0, 2**32),
    n_families=st.integers(1, 3),
    genera_per_family=st.integers(1, 3),
    species_per_genus=st.integers(2, 3),
    d_teacher=st.integers(1, 9),
    d_student_in=st.integers(1, 9),
    d_student=st.integers(1, 9),
    variant_count=st.integers(2, 4),
    audio_per_species=st.integers(2, 5),
    images_per_species=st.integers(2, 5),
    sigma_variant=st.sampled_from([0.0, 0.05, 3.0]),
    sigma_image=st.sampled_from([0.0, 0.15]),
    sigma_audio=st.sampled_from([0.0, 0.2]),
)


class TestMatchesPerRowReference:
    @given(WORLD_CONFIGS)
    @settings(max_examples=40, deadline=None)
    def test_world(self, config):
        world = generate_world(config)
        expected = reference_world(config)
        assert np.array_equal(world.species_centres, np.array(expected["species_centres"]))
        for name in ("teacher_text", "images", "audio_features", "student_text"):
            assert np.array_equal(getattr(world, name).matrix, np.array(expected[name])), name

    def test_default_world(self, default_world):
        expected = reference_world(default_world.config)
        for name in ("teacher_text", "images", "audio_features", "student_text"):
            assert np.array_equal(getattr(default_world, name).matrix, np.array(expected[name])), name

    @given(WORLD_CONFIGS, st.sampled_from([0.1, 0.25, 0.5, 0.9]), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_split(self, config, fraction, seed):
        train, held_out = split_rows(config, fraction, seed)
        for per_species, name, channel in (
            (config.audio_per_species, "split_audio", "audio"),
            (config.images_per_species, "split_image", "images"),
        ):
            n_eval = min(max(int(math.floor(fraction * per_species + 0.5)), 1), per_species - 1)
            expected = reference_split(config.n_species, per_species, n_eval, seed, name)
            assert getattr(train, channel).tolist() == expected[0]
            assert getattr(held_out, channel).tolist() == expected[1]

    @given(WORLD_CONFIGS, st.data())
    @settings(max_examples=40, deadline=None)
    def test_selected_rows(self, config, data):
        # Rows drawn alone are the whole world's rows at those positions.
        whole = generate_world(config)
        selected = {}
        for name in ("images", "audio_features", "teacher_text"):
            n_rows = getattr(whole, name).n_items
            picked = data.draw(st.sets(st.integers(0, n_rows - 1), max_size=n_rows), label=name)
            selected[name] = np.array(sorted(picked), dtype=np.int64)
        world = generate_world(
            config,
            image_rows=selected["images"],
            audio_rows=selected["audio_features"],
            teacher_rows=selected["teacher_text"],
        )
        for name, rows in selected.items():
            held, full = getattr(world, name), getattr(whole, name)
            assert held.matrix.shape == (rows.size, full.matrix.shape[1])
            assert held.matrix.tobytes() == full.matrix[rows].tobytes(), name
            assert held.labels.tolist() == full.labels[rows].tolist(), name
        assert world.student_text.matrix.tobytes() == whole.student_text.matrix.tobytes()

    def test_zero_row_is_named(self):
        # All-zero draws leave every species centre at the origin.
        def zeros(out, *args, **kwargs):
            out[...] = 0.0
            return out

        with mock.patch.object(world_module, "draw_streams", zeros):
            with pytest.raises(ZeroVectorError, match="species centre 0/0/0; sigmas too degenerate"):
                generate_world(SMALL_WORLD)


class TestWorldConfig:
    def test_defaults(self):
        c = WorldConfig()
        assert c.n_species == 48
        assert c.n_genera == 12
        assert (c.d_teacher, c.d_student_in, c.d_student) == (32, 20, 24)
        assert c.variant_count == 3
        assert (c.audio_per_species, c.images_per_species) == (20, 10)

    def test_rejects_single_species(self):
        with pytest.raises(InvalidConfigError, match="at least 2 species"):
            WorldConfig(n_families=1, genera_per_family=1, species_per_genus=1)

    def test_rejects_negative_seed(self):
        with pytest.raises(InvalidConfigError, match="seed must be >= 0"):
            dataclasses.replace(SMALL_WORLD, seed=-1)

    def test_rejects_single_variant(self):
        with pytest.raises(InvalidConfigError, match="variant_count"):
            dataclasses.replace(SMALL_WORLD, variant_count=1)

    def test_rejects_negative_sigma(self):
        with pytest.raises(InvalidConfigError, match="sigma_audio"):
            dataclasses.replace(SMALL_WORLD, sigma_audio=-0.1)

    def test_rejects_nonfinite_sigma(self):
        with pytest.raises(InvalidConfigError):
            dataclasses.replace(SMALL_WORLD, sigma_genus=float("nan"))

    def test_rejects_zero_sigma_family(self):
        with pytest.raises(InvalidConfigError, match="sigma_family"):
            dataclasses.replace(SMALL_WORLD, sigma_family=0.0)

    def test_rejects_zero_dims_and_counts(self):
        with pytest.raises(InvalidConfigError):
            dataclasses.replace(SMALL_WORLD, d_teacher=0)
        with pytest.raises(InvalidConfigError):
            dataclasses.replace(SMALL_WORLD, audio_per_species=0)


class TestGenerateWorld:
    def test_shapes(self, small_world):
        c = small_world.config
        assert small_world.n_species == 8
        assert small_world.species_centres.shape == (8, c.d_teacher)
        assert small_world.teacher_text.matrix.shape == (8 * c.variant_count, c.d_teacher)
        assert small_world.images.matrix.shape == (8 * c.images_per_species, c.d_teacher)
        assert small_world.audio_features.matrix.shape == (8 * c.audio_per_species, c.d_student_in)
        assert small_world.student_text.matrix.shape == (8, c.d_student)

    def test_modalities_and_unit_norms(self, small_world):
        assert small_world.teacher_text.modality is Modality.TEACHER_TEXT
        assert small_world.images.modality is Modality.IMAGE
        assert small_world.audio_features.modality is Modality.AUDIO
        assert small_world.student_text.modality is Modality.STUDENT_TEXT
        assert_unit_rows(small_world.teacher_text.matrix)
        assert_unit_rows(small_world.images.matrix)
        assert_unit_rows(small_world.student_text.matrix)
        # Raw audio features stay off the unit sphere.
        assert not np.allclose(np.linalg.norm(small_world.audio_features.matrix, axis=1), 1.0)

    def test_prototypes_unit_norm_and_readonly(self, small_world):
        norms = np.linalg.norm(small_world.species_centres, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-12)
        assert not small_world.species_centres.flags.writeable

    def test_label_blocks(self, small_world):
        c = small_world.config
        assert np.array_equal(
            small_world.teacher_text.labels, np.repeat(np.arange(8), c.variant_count)
        )
        assert np.array_equal(small_world.images.labels, np.repeat(np.arange(8), c.images_per_species))
        assert np.array_equal(
            small_world.audio_features.labels, np.repeat(np.arange(8), c.audio_per_species)
        )

    def test_bitwise_determinism(self, small_world):
        again = generate_world(SMALL_WORLD)
        assert np.array_equal(again.species_centres, small_world.species_centres)
        assert np.array_equal(again.teacher_text.matrix, small_world.teacher_text.matrix)
        assert np.array_equal(again.student_text.matrix, small_world.student_text.matrix)
        assert np.array_equal(again.images.matrix, small_world.images.matrix)
        assert np.array_equal(again.audio_features.matrix, small_world.audio_features.matrix)

    def test_seed_changes_world(self, small_world):
        other = generate_world(dataclasses.replace(SMALL_WORLD, seed=12))
        assert not np.array_equal(other.species_centres, small_world.species_centres)
        assert not np.array_equal(other.audio_features.matrix, small_world.audio_features.matrix)

    def test_zero_variant_noise_collapses_variants(self):
        world = generate_world(dataclasses.replace(SMALL_WORLD, sigma_variant=0.0))
        v = world.config.variant_count
        for sp in range(world.n_species):
            rows = world.teacher_text.matrix[sp * v : (sp + 1) * v]
            # All variants reduce to the prototype when variant noise is off.
            assert np.array_equal(rows[0], rows[1])
            assert np.allclose(rows[0], world.species_centres[sp], atol=1e-12)

    def test_zero_image_noise_collapses_images(self):
        world = generate_world(dataclasses.replace(SMALL_WORLD, sigma_image=0.0))
        for sp in range(world.n_species):
            block = world.images.matrix[world.images.labels == sp]
            assert np.allclose(block, world.species_centres[sp], atol=1e-12)

    def test_hierarchy_cosine_ordering(self, default_world):
        c = default_world.config
        protos = default_world.species_centres
        # The genus-major layout: species -> genus -> family by division.
        genus = np.arange(default_world.n_species) // c.species_per_genus
        family = genus // c.genera_per_family
        sims = protos @ protos.T
        same_genus, same_family, cross_family = [], [], []
        n = default_world.n_species
        for i in range(n):
            for j in range(i + 1, n):
                if genus[i] == genus[j]:
                    same_genus.append(sims[i, j])
                elif family[i] == family[j]:
                    same_family.append(sims[i, j])
                else:
                    cross_family.append(sims[i, j])
        assert np.mean(same_genus) > np.mean(same_family) > np.mean(cross_family)

    def test_images_cluster_around_own_prototype(self, default_world):
        protos = default_world.species_centres
        own = np.einsum(
            "ij,ij->i", default_world.images.matrix, protos[default_world.images.labels]
        )
        # Every image should sit closer to its own prototype than the
        # average cross-species similarity.
        assert np.min(own) > float(np.mean(protos @ protos.T))

    def test_audio_rows_cluster_by_species(self, small_world):
        m = small_world.audio_features.matrix
        lab = small_world.audio_features.labels
        centroids = np.stack([m[lab == sp].mean(axis=0) for sp in range(8)])
        d_own = np.linalg.norm(m - centroids[lab], axis=1)
        within = float(np.mean(d_own))
        between = float(
            np.mean(np.linalg.norm(centroids[:, None, :] - centroids[None, :, :], axis=2))
        )
        assert within < between


def species_counts(rows, per_species):
    """Items per species among ``rows``, positions in a whole world's channel."""
    return np.bincount(rows // per_species, minlength=SMALL_WORLD.n_species).tolist()


class TestWorldSplit:
    def test_fraction_bounds(self, small_world):
        for bad in (0.0, 1.0, -0.25, 1.5):
            with pytest.raises(InvalidConfigError, match="holdout_fraction"):
                split_rows(small_world.config, holdout_fraction=bad, seed=0)

    def test_partition_is_disjoint_and_complete(self, small_world):
        train, eval_ = split_rows(SMALL_WORLD, holdout_fraction=0.25, seed=SMALL_WORLD.seed)
        audio_all = np.concatenate([train.audio, eval_.audio])
        image_all = np.concatenate([train.images, eval_.images])
        assert sorted(audio_all.tolist()) == list(range(small_world.audio_features.n_items))
        assert sorted(image_all.tolist()) == list(range(small_world.images.n_items))
        assert not set(train.audio) & set(eval_.audio)
        assert not set(train.images) & set(eval_.images)

    def test_views_take_rows_from_world(self, small_views, small_world):
        sides = split_rows(SMALL_WORLD, holdout_fraction=0.25, seed=SMALL_WORLD.seed)
        for view, rows in zip(small_views, sides):
            assert np.array_equal(view.audio_features.matrix, small_world.audio_features.matrix[rows.audio])
            assert np.array_equal(view.images.matrix, small_world.images.matrix[rows.images])
            assert np.array_equal(view.audio_features.labels, small_world.audio_features.labels[rows.audio])

    def test_text_channels_shared(self, small_views, small_prepared):
        world = small_prepared.world
        train, eval_ = small_views
        for side in (train, eval_):
            assert side.config is world.config
            assert side.species_centres is world.species_centres
        assert train.teacher_text is world.teacher_text
        assert eval_.teacher_text is world.teacher_text
        assert train.student_text is world.student_text
        assert eval_.student_text is world.student_text

    def test_per_species_counts(self, small_views, small_world):
        # 6 audio at f=0.25 -> 2 eval; 4 images at f=0.25 -> 1 eval.
        train, eval_ = small_views
        for sp in range(8):
            assert int(np.sum(eval_.audio_features.labels == sp)) == 2
            assert int(np.sum(train.audio_features.labels == sp)) == 4
            assert int(np.sum(eval_.images.labels == sp)) == 1
            assert int(np.sum(train.images.labels == sp)) == 3

    def test_tiny_fraction_keeps_one_eval_item(self):
        _, eval_ = split_rows(SMALL_WORLD, holdout_fraction=0.01, seed=3)
        assert species_counts(eval_.audio, SMALL_WORLD.audio_per_species) == [1] * 8
        assert species_counts(eval_.images, SMALL_WORLD.images_per_species) == [1] * 8

    def test_huge_fraction_keeps_one_train_item(self):
        train, _ = split_rows(SMALL_WORLD, holdout_fraction=0.99, seed=3)
        assert species_counts(train.audio, SMALL_WORLD.audio_per_species) == [1] * 8
        assert species_counts(train.images, SMALL_WORLD.images_per_species) == [1] * 8

    def test_indices_sorted_within_species(self):
        c = SMALL_WORLD
        for side in split_rows(c, holdout_fraction=0.25, seed=c.seed):
            for rows, per_species in ((side.audio, c.audio_per_species), (side.images, c.images_per_species)):
                for sp in range(8):
                    block = rows[rows // per_species == sp]
                    assert np.array_equal(block, np.sort(block))

    def test_split_determinism_and_seed_sensitivity(self):
        a1 = split_rows(SMALL_WORLD, holdout_fraction=0.25, seed=11)
        a2 = split_rows(SMALL_WORLD, holdout_fraction=0.25, seed=11)
        b = split_rows(SMALL_WORLD, holdout_fraction=0.25, seed=12)
        assert np.array_equal(a1[1].audio, a2[1].audio)
        assert not np.array_equal(a1[1].audio, b[1].audio)

    def test_single_item_species_cannot_split(self):
        config = dataclasses.replace(SMALL_WORLD, audio_per_species=1)
        with pytest.raises(TooFewItemsError, match="at least 2 items"):
            split_rows(config, holdout_fraction=0.25, seed=0)

    @given(st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=25, deadline=None)
    def test_eval_count_tracks_fraction(self, fraction):
        _, eval_ = split_rows(SMALL_WORLD, holdout_fraction=fraction, seed=2)
        n = SMALL_WORLD.audio_per_species
        expected = min(max(int(np.floor(fraction * n + 0.5)), 1), n - 1)
        assert species_counts(eval_.audio, n) == [expected] * 8
