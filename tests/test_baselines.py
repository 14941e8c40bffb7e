"""Baselines: random projection, text mapping, cascaded zero-shot."""

import dataclasses
import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmodal import (
    EmbeddingSet,
    MissingPrototypeError,
    Modality,
    NonFiniteLossError,
    NoRelevantItemsError,
    SpeciesMismatchError,
    TooFewItemsError,
    TrainConfig,
    WorldConfig,
    cascaded_zero_shot_baseline,
    class_prototypes,
    generate_world,
    map_from_ranked,
    map_retrieval,
    nearest_prototype,
    random_projection_baseline,
    text_mapping_baseline,
    text_mapping_rankings,
)
from xmodal import baselines, evaluation
from xmodal.embeddings import similarity_matrix
from xmodal.evaluation import chance_map_oracle, rank_by_score
from xmodal.pipeline import prepare_world, teacher_prototype_set
from xmodal.rng import rng_for
from xmodal.runconfig import parse_config

from conftest import EXACT_PALETTE, SMALL_WORLD, assert_unit_rows, exact_sets
from test_acceptance import oracle_ap, oracle_pair_scores, oracle_rank


def eset(matrix, labels, modality=Modality.AUDIO) -> EmbeddingSet:
    return EmbeddingSet(np.asarray(matrix, dtype=np.float64), np.asarray(labels), modality)


def gallery_orders(ranked):
    """Each score row's gallery order, as ``map_from_ranked`` ranks it."""
    return ranked.gallery_order[rank_by_score(ranked.scores)]


class TestRandomProjection:
    def test_rows_unit_norm_and_labels_kept(self, small_world):
        out = random_projection_baseline(small_world.audio_features, d_teacher=12, seed=3)
        assert out.matrix.shape == (small_world.audio_features.n_items, 12)
        assert np.allclose(np.linalg.norm(out.matrix, axis=1), 1.0, atol=1e-9)
        assert np.array_equal(out.labels, small_world.audio_features.labels)
        assert_unit_rows(out.matrix)

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
        with mock.patch.object(baselines, "mlp_init", return_value=params):
            train, table = text_mapping_baseline(teacher_protos, teacher_protos, TrainConfig(batch_size=4, epochs=0))
        assert train.loss_curve == ()
        assert np.allclose(table.matrix, teacher_protos.matrix, atol=1e-12)
        assert np.array_equal(table.labels, teacher_protos.labels)

    def test_training_reduces_loss(self, small_world):
        tc = TrainConfig(batch_size=4, epochs=25, seed=2)
        train, _ = text_mapping_baseline(small_world.student_text, teacher_prototype_set(small_world), tc)
        assert len(train.loss_curve) == 25
        assert train.loss_curve[-1] < train.loss_curve[0]

    def test_deterministic(self, small_world):
        tc = TrainConfig(batch_size=4, epochs=5, seed=2)
        teacher = teacher_prototype_set(small_world)
        train_a, table_a = text_mapping_baseline(small_world.student_text, teacher, tc)
        train_b, table_b = text_mapping_baseline(small_world.student_text, teacher, tc)
        assert train_a.loss_curve == train_b.loss_curve
        assert np.array_equal(table_a.matrix, table_b.matrix)

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

    def test_nan_teacher_row_stops_at_its_step(self, small_world):
        # Species 5's NaN target first enters the batch that holds its
        # position in the first epoch's permutation: here step 1, not 0.
        teacher = teacher_prototype_set(small_world)
        poisoned_matrix = teacher.matrix.copy()
        poisoned_matrix[5] = np.nan
        poisoned = eset(poisoned_matrix, teacher.labels, teacher.modality)
        tc = TrainConfig(batch_size=3, epochs=2, seed=4)
        position = rng_for(tc.seed, "textmap_shuffle", 0).permutation(8).tolist().index(5)
        with pytest.raises(NonFiniteLossError) as info:
            text_mapping_baseline(small_world.student_text, poisoned, tc)
        assert info.value.step == position // tc.batch_size == 1
        assert "training step 1" in str(info.value)

    @pytest.mark.parametrize("epochs", [0, 3])
    def test_one_species_is_too_few(self, small_world, epochs):
        teacher = teacher_prototype_set(small_world)
        with pytest.raises(TooFewItemsError, match="at least 2 items, got 1"):
            text_mapping_baseline(
                small_world.student_text.take([0]), teacher.take([0]), TrainConfig(batch_size=4, epochs=epochs)
            )

    def test_unsorted_labels_rejected(self, small_world):
        # Shuffled student rows are not re-sorted: the text sets are
        # per-class tables, labels strictly ascending.
        teacher = teacher_prototype_set(small_world)
        st = small_world.student_text
        perm = rng_for(1, "permute").permutation(8)
        shuffled = eset(st.matrix[perm], st.labels[perm], st.modality)
        with pytest.raises(SpeciesMismatchError, match="student text must hold one row per class"):
            text_mapping_baseline(shuffled, teacher, TrainConfig(batch_size=4, epochs=4, seed=9))

    def test_audio_embeddings_route(self, small_world):
        # Clips classified to species sp must be scored by the mapped row
        # of sp (here: the teacher prototype itself), one row per distinct
        # predicted species in ascending label order, over the gallery in
        # index order.
        teacher_protos = teacher_prototype_set(small_world)
        audio = small_world.audio_features
        images = small_world.images
        audio_protos = class_prototypes(audio)
        ranked = text_mapping_rankings(teacher_protos, audio, audio_protos, images)
        predicted, _ = nearest_prototype(audio, audio_protos)
        classes = np.unique(predicted)
        assert ranked.row_of.tolist() == np.searchsorted(classes, predicted).tolist()
        scores = similarity_matrix(teacher_protos.take(np.searchsorted(teacher_protos.labels, classes)), images)
        assert ranked.gallery_order.tolist() == list(range(images.n_items))
        for i in range(audio.n_items):
            row = scores[np.searchsorted(classes, predicted[i])]
            assert ranked.scores[ranked.row_of[i]].tobytes() == row.tobytes()

    def test_missing_mapped_species(self, small_world):
        # Species 0 is missing from the mapped table.
        table = teacher_prototype_set(small_world).take(range(1, 8))
        audio = small_world.audio_features
        audio_protos = class_prototypes(audio)
        with pytest.raises(MissingPrototypeError, match="no mapped text"):
            text_mapping_rankings(table, audio, audio_protos, small_world.images)


def out_of_order(table):
    """``table`` with its first two rows swapped."""
    return table.take([1, 0, *range(2, table.n_items)])


def duplicated(table):
    """``table`` with its last row repeated."""
    return table.take([*range(table.n_items), table.n_items - 1])


DEFECTS = {"out_of_order": out_of_order, "duplicate": duplicated}


class TestClassTables:
    # A per-class table enters every baseline with one row per class,
    # labels strictly ascending; any other table is an error, never
    # silently re-sorted or misread.
    @pytest.mark.parametrize("defect", DEFECTS)
    @pytest.mark.parametrize("side", ["student", "teacher"])
    def test_text_mapping_baseline(self, small_world, side, defect):
        tables = {"student": small_world.student_text, "teacher": teacher_prototype_set(small_world)}
        tables[side] = DEFECTS[defect](tables[side])
        with pytest.raises(SpeciesMismatchError, match=f"{side} text must hold one row per class"):
            text_mapping_baseline(tables["student"], tables["teacher"], TrainConfig(batch_size=4, epochs=1))

    @pytest.mark.parametrize("defect", DEFECTS)
    @pytest.mark.parametrize("name", ["mapped table", "prototypes"])
    def test_text_mapping_rankings(self, small_world, name, defect):
        audio = small_world.audio_features
        tables = {"mapped table": teacher_prototype_set(small_world), "prototypes": class_prototypes(audio)}
        tables[name] = DEFECTS[defect](tables[name])
        with pytest.raises(SpeciesMismatchError, match=f"^{name} must hold one row per class"):
            text_mapping_rankings(tables["mapped table"], audio, tables["prototypes"], small_world.images)

    @pytest.mark.parametrize("defect", DEFECTS)
    @pytest.mark.parametrize("side", ["student", "teacher"])
    def test_cascade(self, small_world, side, defect):
        audio = small_world.audio_features
        tables = {"student": class_prototypes(audio), "teacher": teacher_prototype_set(small_world)}
        tables[side] = DEFECTS[defect](tables[side])
        with pytest.raises(SpeciesMismatchError, match="^prototypes must hold one row per class"):
            cascaded_zero_shot_baseline(audio, small_world.images, tables["student"], tables["teacher"])

    @pytest.mark.parametrize(
        "rows",
        [[0, 1, 2, 4, 3, *range(5, 48)], rng_for(3, "shuffle").permutation(48).tolist()],
        ids=["rows_3_4_swapped", "shuffled"],
    )
    def test_default_mapped_table_out_of_order(self, rows):
        # Read by position, the default world's mapped table with rows 3
        # and 4 swapped scores mAP 0.6131 in place of 0.6269, and a
        # shuffled one indexes past the table.
        config = parse_config("")
        prepared = prepare_world(config, "run")
        _, table = text_mapping_baseline(prepared.world.student_text, prepared.teacher_prototypes, config.train)
        audio = prepared.eval_view.audio_features
        images = prepared.eval_view.images
        audio_prototypes = class_prototypes(prepared.train_view.audio_features)
        ranked = text_mapping_rankings(table, audio, audio_prototypes, images)
        assert f"{map_from_ranked(ranked, audio.labels, images.labels).value:.4f}" == "0.6269"
        with pytest.raises(SpeciesMismatchError, match="^mapped table must hold one row per class"):
            text_mapping_rankings(table.take(rows), audio, audio_prototypes, images)


# SHA-256 of (the mapped table's matrix.tobytes(), repr(loss_curve)) fit on
# the default world, for each optimizer. The loop may be restructured but
# must not move a bit of either.
TEXT_MAPPING_SHA256 = {
    "": (
        "8f013101d7a98fe41c560d5a0f51cf4779d6717f3a75916b9e03237c75166034",
        "2793f33a42407b634e3f7dec679f13cb6fb0bee918613c343bff370bbe5e67d5",
    ),
    "train.optimizer = sgd_momentum": (
        "9a36074c46a87fe41709de163e4ff5b79c8a9a076a52418ad33fd9369668137c",
        "3a77233e862e9e54dea2098b660ccc342d8544ead672677d8f2a5a68df736673",
    ),
}


@pytest.mark.parametrize("overrides", list(TEXT_MAPPING_SHA256), ids=["default", "sgd"])
def test_text_mapping_bits_pinned(overrides):
    config = parse_config(overrides)
    world = generate_world(config.world)
    train, table = text_mapping_baseline(world.student_text, teacher_prototype_set(world), config.train)
    digests = (
        hashlib.sha256(table.matrix.tobytes()).hexdigest(),
        hashlib.sha256(repr(train.loss_curve).encode("utf-8")).hexdigest(),
    )
    assert len(train.loss_curve) == config.train.epochs
    assert digests == TEXT_MAPPING_SHA256[overrides]


@pytest.mark.xfail(
    reason="the contrastive objective converges to contrast-enhanced"
    " directions (target minus weighted negatives), not to the targets"
    " themselves, so mapped prototypes plateau well below this cosine",
    strict=True,
)
def test_mapped_prototypes_nearly_reach_teacher(default_world):
    _, table = text_mapping_baseline(default_world.student_text, teacher_prototype_set(default_world), TrainConfig())
    mapped = table.matrix
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
        audio = small_world.audio_features.take(range(0, 48, 4))
        images = small_world.images
        audio_prototypes = class_prototypes(small_world.audio_features)
        ranked = cascaded_zero_shot_baseline(audio, images, audio_prototypes, teacher_prototype_set(small_world))
        predicted, _ = nearest_prototype(audio, audio_prototypes)
        # One score row per distinct predicted class, in ascending label
        # order; every clip reads the row of its predicted class.
        classes = np.unique(predicted)
        assert ranked.scores.shape == (classes.size, images.n_items) and classes.size > 1
        assert ranked.row_of.tolist() == np.searchsorted(classes, predicted).tolist()

    # Minus a dense rank among n classes fits the smallest signed type
    # that holds -n: int8 up to 128 classes, int16 from 129.
    @pytest.mark.parametrize("n_classes, dtype", [(127, np.int8), (128, np.int8), (129, np.int16)])
    def test_scores_are_small_signed_integers(self, n_classes, dtype):
        rng = rng_for(n_classes, "many classes")
        teacher = eset(rng.standard_normal((n_classes, 6)), np.arange(n_classes), Modality.TEACHER_TEXT)
        picks = rng.integers(0, n_classes, 40)
        audio = eset(teacher.matrix[picks[:20]], picks[:20])
        images = eset(teacher.matrix[picks[20:]] + 0.1 * rng.standard_normal((20, 6)), picks[20:], Modality.IMAGE)
        inputs = (audio, images, eset(teacher.matrix, teacher.labels), teacher)
        assert cascaded_zero_shot_baseline(*inputs).scores.dtype == dtype
        assert_float_sort_rankings(inputs)

    def test_audio_misclassification_propagates(self):
        # Stage one maps the clip to species B, so B's images rank above
        # the clip's own species A, whatever the clip actually was.
        protos_teacher = eset([[1.0, 0.0], [0.0, 1.0]], [0, 1], Modality.TEACHER_TEXT)
        audio_protos = eset([[1.0, 0.0], [0.0, 1.0]], [0, 1], Modality.AUDIO)
        # One clip of species 0 sitting on species 1's prototype.
        audio = eset([[0.01, 1.0]], [0], Modality.AUDIO)
        images = eset([[1.0, 0.01], [0.01, 1.0]], [0, 1], Modality.IMAGE)
        ranked = cascaded_zero_shot_baseline(audio, images, audio_protos, protos_teacher)
        assert gallery_orders(ranked).tolist() == [[1, 0]]

    def test_tie_break_by_image_confidence(self):
        # Both images classify to the same species, so their cascade
        # scores tie; the more confident image must rank first.
        protos = eset([[1.0, 0.0], [0.0, 1.0]], [0, 1], Modality.TEACHER_TEXT)
        audio_protos = eset([[1.0, 0.0], [0.0, 1.0]], [0, 1], Modality.AUDIO)
        audio = eset([[1.0, 0.0]], [0], Modality.AUDIO)
        images = eset([[0.7, 0.7], [1.0, 0.05]], [0, 0], Modality.IMAGE)
        ranked = cascaded_zero_shot_baseline(audio, images, audio_protos, protos)
        assert gallery_orders(ranked).tolist() == [[1, 0]]

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
        assert np.array_equal(a.row_of, b.row_of)
        assert np.array_equal(a.gallery_order, b.gallery_order)
        assert a.scores.dtype == b.scores.dtype and a.scores.tobytes() == b.scores.tobytes()


def oracle_predict(items, prototypes):
    """Nearest-prototype labels and cosines, from per-pair scores; ties
    go to the lowest label."""
    scores = oracle_pair_scores(items.matrix, prototypes.matrix)
    labels = [int(label) for label in prototypes.labels]
    best = [min(range(len(labels)), key=lambda j: (-scores[i, j], labels[j])) for i in range(items.n_items)]
    return [labels[j] for j in best], [scores[i, j] for i, j in enumerate(best)]


def oracle_cascade_orders(audio, images, student_prototypes, teacher_prototypes):
    """Per-clip predicted classes and cascade rankings, from per-pair
    scores and Python sorts."""
    audio_pred, _ = oracle_predict(audio, student_prototypes)
    image_pred, image_conf = oracle_predict(images, teacher_prototypes)
    proto_cos = oracle_pair_scores(teacher_prototypes.matrix, teacher_prototypes.matrix)
    row = {int(label): j for j, label in enumerate(teacher_prototypes.labels)}
    orders = []
    for predicted in audio_pred:
        scores = [proto_cos[row[predicted], row[p]] for p in image_pred]
        orders.append(sorted(range(images.n_items), key=lambda j: (-scores[j], -image_conf[j], j)))
    return audio_pred, orders


@st.composite
def cascade_inputs(draw, teacher_rows=None):
    """Audio, images and both prototype tables over negative-capable labels,
    the tables' labels ascending.

    ``teacher_rows`` caps the distinct palette rows of the teacher table,
    so that classes share prototypes and their cosines tie exactly.
    """
    classes = sorted(draw(st.lists(st.integers(-6, 6), min_size=1, max_size=5, unique=True)))
    labels = st.sampled_from(classes)
    rows = st.integers(0, len(EXACT_PALETTE) - 1)

    def prototypes(modality, rows):
        picks = draw(st.lists(rows, min_size=len(classes), max_size=len(classes)))
        return EmbeddingSet(EXACT_PALETTE[picks], classes, modality)

    teacher = rows
    if teacher_rows is not None:
        teacher = st.sampled_from(draw(st.lists(rows, min_size=1, max_size=teacher_rows)))

    return (
        draw(exact_sets(labels)),
        draw(exact_sets(labels, modality=Modality.IMAGE)),
        prototypes(Modality.AUDIO, rows),
        prototypes(Modality.TEACHER_TEXT, teacher),
    )


def float_sort_rankings(audio, images, student_prototypes, teacher):
    """Each predicted class's gallery order and ranked float scores,
    ascending class, by a stable float sort of the negated scores over
    the presorted gallery."""
    audio_pred, _ = nearest_prototype(audio, student_prototypes)
    image_pred, image_conf = nearest_prototype(images, teacher)
    proto_cos = baselines.similarity_matrix(teacher, teacher)
    presorted = np.argsort(-image_conf, kind="stable")
    rows = np.searchsorted(teacher.labels, np.unique(audio_pred))
    scores = proto_cos[rows[:, None], np.searchsorted(teacher.labels, image_pred[presorted])]
    within = np.argsort(-scores, axis=1, kind="stable")
    return presorted[within], np.take_along_axis(scores, within, axis=1)


def assert_float_sort_rankings(inputs):
    orders, scores = float_sort_rankings(*inputs)
    ranked = cascaded_zero_shot_baseline(*inputs)
    within = rank_by_score(ranked.scores)
    assert ranked.gallery_order[within].tolist() == orders.tolist()
    # In rank order, the integer scores tie exactly where the cosines do
    # (every NaN ties with every NaN).
    keys = np.take_along_axis(ranked.scores, within, axis=1)
    nan = np.isnan(scores)
    float_ties = (scores[:, 1:] == scores[:, :-1]) | (nan[:, 1:] & nan[:, :-1])
    assert np.array_equal(keys[:, 1:] == keys[:, :-1], float_ties)


# Edits of the cascade's cosine table, cell by cell: keep, +0.0, -0.0,
# NaN, or a copy of cell (0, 0), an exact tie.
TABLE_EDITS = st.lists(st.sampled_from(["keep", 0.0, -0.0, np.nan, "tie"]), min_size=25, max_size=25)


def edited_similarity(edits):
    similarity = baselines.similarity_matrix

    def edited(queries, gallery):
        table = similarity(queries, gallery)
        flat = table.reshape(-1)
        for cell, edit in enumerate(edits[: flat.size]):
            if edit == "tie":
                flat[cell] = flat[0]
            elif edit != "keep":
                flat[cell] = edit
        return table

    return edited


def assert_map_matches_oracle(ranked, audio, images, orders, cells):
    """map_from_ranked over ``ranked`` gives the Python AP of clip i's
    ``orders[i]`` for every clip with a relevant image, bit for bit."""
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


class TestTextMappingMatchesNaiveOracle:
    # The teacher table of cascade_inputs stands in for the mapped table.
    @given(cascade_inputs(), st.integers(1, 40))
    @settings(max_examples=100, deadline=None)
    def test_rankings_and_map(self, inputs, cells):
        audio, images, audio_prototypes, table = inputs
        audio_pred, _ = oracle_predict(audio, audio_prototypes)
        scores = oracle_pair_scores(table.matrix, images.matrix)
        row = {int(label): j for j, label in enumerate(table.labels)}
        orders = [oracle_rank(scores[row[predicted]]) for predicted in audio_pred]
        ranked = text_mapping_rankings(table, audio, audio_prototypes, images)
        classes = sorted(set(audio_pred))
        assert ranked.row_of.tolist() == [classes.index(p) for p in audio_pred]
        assert gallery_orders(ranked)[ranked.row_of].tolist() == orders
        assert_map_matches_oracle(ranked, audio, images, orders, cells)

    def test_nan_mapped_row_ranks_in_index_order(self):
        # A NaN row of the table scores NaN against every image, so its
        # clips rank the gallery in index order.
        audio = eset(EXACT_PALETTE[[0, 8, 0]], [0, 1, 0])
        images = eset(EXACT_PALETTE[[8, 0, 16]], [1, 0, 1], Modality.IMAGE)
        prototypes = eset(EXACT_PALETTE[[0, 8]], [0, 1])
        table = eset([[np.nan, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 0.0]], [0, 1], Modality.TEACHER_TEXT)
        ranked = text_mapping_rankings(table, audio, prototypes, images)
        assert ranked.row_of.tolist() == [0, 1, 0]
        assert np.isnan(ranked.scores[0]).all() and gallery_orders(ranked)[0].tolist() == [0, 1, 2]
        report = map_from_ranked(ranked, audio.labels, images.labels)
        assert report.per_query[0] == report.per_query[2] == oracle_ap([False, True, False], 1)


class TestCascadeMatchesNaiveOracle:
    @given(cascade_inputs(), st.integers(1, 40))
    @settings(max_examples=100, deadline=None)
    def test_rankings_and_map(self, inputs, cells):
        audio, images = inputs[:2]
        audio_pred, orders = oracle_cascade_orders(*inputs)
        ranked = cascaded_zero_shot_baseline(*inputs)
        # One row per predicted class, ascending; clip i reads the row of
        # its class, and that row ranks the gallery in its order.
        classes = sorted(set(audio_pred))
        assert ranked.scores.shape[0] == len(classes)
        assert ranked.row_of.tolist() == [classes.index(p) for p in audio_pred]
        assert gallery_orders(ranked)[ranked.row_of].tolist() == orders
        assert_map_matches_oracle(ranked, audio, images, orders, cells)

    @given(cascade_inputs(teacher_rows=2))
    @settings(max_examples=100, deadline=None)
    def test_classes_sharing_a_teacher_prototype_tie_exactly(self, inputs):
        assert_float_sort_rankings(inputs)

    @given(cascade_inputs(), TABLE_EDITS)
    @settings(max_examples=100, deadline=None)
    def test_signed_zero_nan_and_tied_cosines(self, inputs, edits):
        with mock.patch.object(baselines, "similarity_matrix", edited_similarity(edits)):
            assert_float_sort_rankings(inputs)

    def test_nan_teacher_prototype(self):
        # Every image scores NaN against the NaN prototype, so every image
        # is predicted as its class, all of its cosines are NaN, and they
        # share one integer score.
        audio = eset(EXACT_PALETTE[[0, 8, 16, 2]], [0, 1, 2, 0])
        images = eset(EXACT_PALETTE[[8, 0, 16, 1, 9]], [1, 0, 2, 0, 1], Modality.IMAGE)
        student = eset(EXACT_PALETTE[[0, 8, 16]], [0, 1, 2])
        teacher_rows = [[1.0, 0.0, 0.0, 0.0], [np.nan, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
        teacher = eset(teacher_rows, [0, 1, 2], Modality.TEACHER_TEXT)
        ranked = cascaded_zero_shot_baseline(audio, images, student, teacher)
        assert (ranked.scores == ranked.scores[:, :1]).all()
        assert_float_sort_rankings((audio, images, student, teacher))
