"""Baselines: random projection, text mapping, cascaded zero-shot."""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmodal import (
    BaselineKind,
    EmbeddingSet,
    MissingPrototypeError,
    Modality,
    NoRelevantItemsError,
    SpeciesMismatchError,
    TrainConfig,
    WorldConfig,
    cascaded_zero_shot_baseline,
    class_prototypes,
    generate_world,
    map_from_ranked,
    map_retrieval,
    random_projection_baseline,
    text_mapping_audio_embeddings,
    text_mapping_baseline,
)
from xmodal import evaluation
from xmodal.baselines import mapping_forward
from xmodal.evaluation import chance_map_oracle
from xmodal.pipeline import teacher_prototype_set
from xmodal.rng import rng_for

from conftest import EXACT_PALETTE, SMALL_WORLD, exact_sets
from test_acceptance import oracle_ap, oracle_pair_scores


def eset(matrix, labels, modality=Modality.AUDIO) -> EmbeddingSet:
    return EmbeddingSet(np.asarray(matrix, dtype=np.float64), np.asarray(labels), modality)


class TestBaselineKind:
    def test_values(self):
        assert {k.value for k in BaselineKind} == {
            "random_projection",
            "text_mapping",
            "cascaded_zero_shot",
        }


class TestRandomProjection:
    def test_rows_unit_norm_and_labels_kept(self, small_world):
        out = random_projection_baseline(small_world.audio_features, d_teacher=12, seed=3)
        assert out.matrix.shape == (small_world.audio_features.n_items, 12)
        assert np.allclose(np.linalg.norm(out.matrix, axis=1), 1.0, atol=1e-9)
        assert np.array_equal(out.labels, small_world.audio_features.labels)
        assert out.normalized

    def test_deterministic_in_seed(self, small_world):
        a = random_projection_baseline(small_world.audio_features, 12, seed=3)
        b = random_projection_baseline(small_world.audio_features, 12, seed=3)
        c = random_projection_baseline(small_world.audio_features, 12, seed=4)
        assert np.array_equal(a.matrix, b.matrix)
        assert not np.array_equal(a.matrix, c.matrix)

    def test_is_a_linear_map_before_normalization(self, small_world):
        # The same projection applied to a doubled input gives the same
        # normalized rows: the baseline has no input-dependent state.
        audio = small_world.audio_features
        doubled = eset(audio.matrix * 2.0, audio.labels)
        a = random_projection_baseline(audio, 12, seed=0)
        b = random_projection_baseline(doubled, 12, seed=0)
        assert np.allclose(a.matrix, b.matrix, atol=1e-12)

    def test_near_chance_retrieval(self, small_world):
        projected = random_projection_baseline(small_world.audio_features, 12, seed=7)
        report = map_retrieval(projected, small_world.images)
        chance = chance_map_oracle(
            n_per_class=SMALL_WORLD.images_per_species, n_classes=8, trials=300, seed=0
        )
        assert report.value <= 3 * chance


class TestTextMapping:
    def test_identity_initialization_recovers_teacher(self, small_world):
        # With map1 = shifted identity and map2 undoing the shift, the
        # mapping is the identity (the +10 keeps every ReLU active), so
        # zero epochs must return the teacher prototypes bit for bit.
        d = SMALL_WORLD.d_teacher
        teacher_protos = teacher_prototype_set(small_world)
        params = {
            "map1_w": np.eye(d),
            "map1_b": 10.0 * np.ones(d),
            "map2_w": np.eye(d),
            "map2_b": -10.0 * np.ones(d),
        }
        report = text_mapping_baseline(
            teacher_protos,
            teacher_protos,
            TrainConfig(batch_size=4, epochs=0),
            initial_params=params,
        )
        assert report.loss_curve == ()
        assert np.allclose(report.mapped_prototypes.matrix, teacher_protos.matrix, atol=1e-12)
        assert np.array_equal(report.mapped_prototypes.labels, teacher_protos.labels)

    def test_mapping_forward_is_relu_mlp(self):
        rng = rng_for(0, "mapfwd")
        params = {
            "map1_w": rng.standard_normal((4, 3)),
            "map1_b": rng.standard_normal(4),
            "map2_w": rng.standard_normal((5, 4)),
            "map2_b": rng.standard_normal(5),
        }
        x = rng.standard_normal((6, 3))
        out, cache = mapping_forward(params, x)
        hidden = np.maximum(x @ params["map1_w"].T + params["map1_b"], 0.0)
        assert np.allclose(out, hidden @ params["map2_w"].T + params["map2_b"], atol=1e-12)
        assert np.array_equal(cache["hidden"], hidden)

    def test_training_reduces_loss(self, small_world):
        tc = TrainConfig(batch_size=4, epochs=25, seed=2)
        report = text_mapping_baseline(small_world.student_text, teacher_prototype_set(small_world), tc)
        assert len(report.loss_curve) == 25
        assert report.loss_curve[-1] < report.loss_curve[0]

    def test_deterministic(self, small_world):
        tc = TrainConfig(batch_size=4, epochs=5, seed=2)
        teacher = teacher_prototype_set(small_world)
        a = text_mapping_baseline(small_world.student_text, teacher, tc)
        b = text_mapping_baseline(small_world.student_text, teacher, tc)
        assert a.loss_curve == b.loss_curve
        assert np.array_equal(a.mapped_prototypes.matrix, b.mapped_prototypes.matrix)

    def test_species_cover_mismatch(self, small_world):
        teacher = teacher_prototype_set(small_world)
        student_missing = small_world.student_text.take(range(7))
        with pytest.raises(SpeciesMismatchError, match="same species"):
            text_mapping_baseline(student_missing, teacher, TrainConfig(batch_size=4, epochs=1))

    def test_duplicate_species_rejected(self, small_world):
        teacher = teacher_prototype_set(small_world)
        st = small_world.student_text
        dup = eset(st.matrix[[0, 0, 1, 2, 3, 4, 5, 6]], st.labels[[0, 0, 1, 2, 3, 4, 5, 6]])
        with pytest.raises(SpeciesMismatchError):
            text_mapping_baseline(dup, teacher, TrainConfig(batch_size=4, epochs=1))

    def test_unsorted_labels_are_aligned(self, small_world):
        # Shuffling the student rows must not change what gets learned:
        # pairs are joined on species id, not on row position.
        teacher = teacher_prototype_set(small_world)
        st = small_world.student_text
        perm = rng_for(1, "permute").permutation(8)
        shuffled = eset(st.matrix[perm], st.labels[perm], st.modality)
        tc = TrainConfig(batch_size=4, epochs=4, seed=9)
        a = text_mapping_baseline(st, teacher, tc)
        b = text_mapping_baseline(shuffled, teacher, tc)
        assert np.allclose(a.mapped_prototypes.matrix, b.mapped_prototypes.matrix, atol=1e-12)

    def test_audio_embeddings_route(self, small_world):
        # Clips classified to species sp must be represented by the
        # mapped row of sp (here: the teacher prototype itself).
        d = SMALL_WORLD.d_teacher
        teacher_protos = teacher_prototype_set(small_world)
        params = {
            "map1_w": np.eye(d),
            "map1_b": 10.0 * np.ones(d),
            "map2_w": np.eye(d),
            "map2_b": -10.0 * np.ones(d),
        }
        report = text_mapping_baseline(
            teacher_protos, teacher_protos, TrainConfig(batch_size=4, epochs=0), initial_params=params
        )
        audio = small_world.audio_features
        audio_protos = class_prototypes(audio)
        embedded = text_mapping_audio_embeddings(report, audio, audio_protos)
        assert embedded.n_items == audio.n_items
        assert np.array_equal(embedded.labels, audio.labels)
        from xmodal.evaluation import nearest_prototype

        predicted, _ = nearest_prototype(audio, audio_protos)
        for i in range(audio.n_items):
            expected_row = teacher_protos.matrix[predicted[i]]
            assert np.allclose(embedded.matrix[i], expected_row, atol=1e-12)

    def test_missing_mapped_species(self, small_world):
        d = SMALL_WORLD.d_teacher
        teacher_protos = teacher_prototype_set(small_world)
        report = text_mapping_baseline(
            teacher_protos,
            teacher_protos,
            TrainConfig(batch_size=4, epochs=0),
            initial_params={
                "map1_w": np.eye(d),
                "map1_b": 10.0 * np.ones(d),
                "map2_w": np.eye(d),
                "map2_b": -10.0 * np.ones(d),
            },
        )
        # Drop species 0 from the mapped table.
        table = report.mapped_prototypes
        truncated = dataclasses.replace(report, mapped_prototypes=table.take(range(1, 8)))
        audio = small_world.audio_features
        audio_protos = class_prototypes(audio)
        with pytest.raises(MissingPrototypeError, match="no mapped text"):
            text_mapping_audio_embeddings(truncated, audio, audio_protos)


@pytest.mark.xfail(
    reason="the contrastive objective converges to contrast-enhanced"
    " directions (target minus weighted negatives), not to the targets"
    " themselves, so mapped prototypes plateau well below this cosine",
    strict=True,
)
def test_mapped_prototypes_nearly_reach_teacher(default_world):
    report = text_mapping_baseline(
        default_world.student_text, teacher_prototype_set(default_world), TrainConfig()
    )
    mapped = report.mapped_prototypes.matrix
    mapped = mapped / np.linalg.norm(mapped, axis=1, keepdims=True)
    cosines = np.einsum("ij,ij->i", mapped, teacher_prototype_set(default_world).matrix)
    assert float(np.mean(cosines)) > 0.9


def perfect_world():
    """Noise-free observations: classification stages cannot err."""
    return generate_world(
        dataclasses.replace(SMALL_WORLD, sigma_image=0.0, sigma_audio=0.0, sigma_variant=0.0)
    )


class TestCascadedZeroShot:
    def test_perfect_world_perfect_map(self):
        world = perfect_world()
        audio = world.audio_features
        images = world.images
        ranked = cascaded_zero_shot_baseline(
            audio,
            images,
            class_prototypes(audio),
            teacher_prototype_set(world),
        )
        report = map_from_ranked(ranked, audio.labels, images.labels)
        assert report.value == 1.0

    def test_ranked_lists_are_valid_and_complete(self, small_world):
        audio = small_world.audio_features.take(range(6))
        images = small_world.images
        ranked = cascaded_zero_shot_baseline(
            audio, images, class_prototypes(small_world.audio_features), teacher_prototype_set(small_world)
        )
        assert len(ranked) == 6
        for i, r in enumerate(ranked):
            assert r.query_index == i
            assert r.gallery_order.size == images.n_items
            # Clips of one predicted class share the ranking arrays.
            assert not r.gallery_order.flags.writeable and not r.scores.flags.writeable

    def test_audio_misclassification_propagates(self):
        # Stage one maps the clip to species B, so B's images rank above
        # the clip's own species A, whatever the clip actually was.
        protos_teacher = eset([[1.0, 0.0], [0.0, 1.0]], [0, 1], Modality.TEACHER_TEXT)
        audio_protos = eset([[1.0, 0.0], [0.0, 1.0]], [0, 1], Modality.AUDIO)
        # One clip of species 0 sitting on species 1's prototype.
        audio = eset([[0.01, 1.0]], [0], Modality.AUDIO)
        images = eset([[1.0, 0.01], [0.01, 1.0]], [0, 1], Modality.IMAGE)
        ranked = cascaded_zero_shot_baseline(audio, images, audio_protos, protos_teacher)
        assert ranked[0].gallery_order.tolist() == [1, 0]

    def test_tie_break_by_image_confidence(self):
        # Both images classify to the same species, so their cascade
        # scores tie; the more confident image must rank first.
        protos = eset([[1.0, 0.0], [0.0, 1.0]], [0, 1], Modality.TEACHER_TEXT)
        audio_protos = eset([[1.0, 0.0], [0.0, 1.0]], [0, 1], Modality.AUDIO)
        audio = eset([[1.0, 0.0]], [0], Modality.AUDIO)
        images = eset([[0.7, 0.7], [1.0, 0.05]], [0, 0], Modality.IMAGE)
        ranked = cascaded_zero_shot_baseline(audio, images, audio_protos, protos)
        assert ranked[0].gallery_order.tolist() == [1, 0]

    def test_missing_prototype_errors(self, small_world):
        audio = small_world.audio_features
        images = small_world.images
        teacher = teacher_prototype_set(small_world)
        audio_protos = class_prototypes(audio)

        with pytest.raises(MissingPrototypeError, match="audio labels"):
            cascaded_zero_shot_baseline(audio, images, audio_protos.take(range(7)), teacher)
        with pytest.raises(MissingPrototypeError, match="no teacher prototype"):
            cascaded_zero_shot_baseline(audio, images, audio_protos, teacher.take(range(7)))
        extra = eset(
            np.vstack([audio_protos.matrix, audio_protos.matrix[:1]]),
            np.concatenate([audio_protos.labels, [99]]),
        )
        with pytest.raises(MissingPrototypeError, match="unknown to the teacher"):
            cascaded_zero_shot_baseline(audio, images, extra, teacher)

    def test_deterministic(self, small_world):
        audio = small_world.audio_features.take(range(4))
        args = (
            audio,
            small_world.images,
            class_prototypes(small_world.audio_features),
            teacher_prototype_set(small_world),
        )
        a = cascaded_zero_shot_baseline(*args)
        b = cascaded_zero_shot_baseline(*args)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.gallery_order, rb.gallery_order)


def oracle_cascade_orders(audio, images, student_prototypes, teacher_prototypes):
    """Per-clip cascade rankings from per-pair scores and Python sorts."""

    def predict(items, prototypes):
        scores = oracle_pair_scores(items.matrix, prototypes.matrix)
        labels = [int(label) for label in prototypes.labels]
        best = [min(range(len(labels)), key=lambda j: (-scores[i, j], labels[j])) for i in range(items.n_items)]
        return [labels[j] for j in best], [scores[i, j] for i, j in enumerate(best)]

    audio_pred, _ = predict(audio, student_prototypes)
    image_pred, image_conf = predict(images, teacher_prototypes)
    proto_cos = oracle_pair_scores(teacher_prototypes.matrix, teacher_prototypes.matrix)
    row = {int(label): j for j, label in enumerate(teacher_prototypes.labels)}
    orders = []
    for predicted in audio_pred:
        scores = [proto_cos[row[predicted], row[p]] for p in image_pred]
        orders.append(sorted(range(images.n_items), key=lambda j: (-scores[j], -image_conf[j], j)))
    return orders


@st.composite
def cascade_inputs(draw):
    """Audio, images and both prototype tables over negative-capable labels."""
    classes = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=5, unique=True))
    labels = st.sampled_from(classes)

    def prototypes(modality):
        picks = draw(st.lists(st.integers(0, len(EXACT_PALETTE) - 1), min_size=len(classes), max_size=len(classes)))
        return EmbeddingSet(EXACT_PALETTE[picks], classes, modality)

    return (
        draw(exact_sets(labels)),
        draw(exact_sets(labels, modality=Modality.IMAGE)),
        prototypes(Modality.AUDIO),
        prototypes(Modality.TEACHER_TEXT),
    )


class TestCascadeMatchesNaiveOracle:
    @given(cascade_inputs(), st.integers(1, 40))
    @settings(max_examples=100, deadline=None)
    def test_rankings_and_map(self, inputs, cells):
        audio, images = inputs[:2]
        orders = oracle_cascade_orders(*inputs)
        ranked = cascaded_zero_shot_baseline(*inputs)
        assert [r.gallery_order.tolist() for r in ranked] == orders

        per_query = []
        for i, order in enumerate(orders):
            label = int(audio.labels[i])
            n_rel = int(np.sum(images.labels == label))
            if n_rel:
                per_query.append(oracle_ap([int(images.labels[j]) == label for j in order], n_rel))
        with mock.patch.object(evaluation, "_BLOCK_CELLS", cells):
            if not per_query:
                with pytest.raises(NoRelevantItemsError):
                    map_from_ranked(ranked, audio.labels, images.labels)
                return
            report = map_from_ranked(ranked, audio.labels, images.labels)
        assert report.value == sum(per_query) / len(per_query)
        assert report.per_query == tuple(per_query)
