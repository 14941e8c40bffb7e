"""End-to-end experiment pipeline: preparation, evaluation, artifacts."""

import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from xmodal import (
    InvalidConfigError,
    class_prototypes,
    generate_world,
    load_params,
    read_embedding_set,
    split_rows,
    text_mapping_baseline,
)
from xmodal import cli, evaluation, pipeline
from xmodal.embeddings import similarity_matrix
from xmodal.evaluation import nearest_prototype
from xmodal.pipeline import (
    _DRAWS,
    BASELINES,
    SUMMARY_METHOD_ORDER,
    _method_audio,
    baseline_report,
    chance_map,
    embedded_audio_set,
    load_trained,
    prepare_world,
    render_summary,
    run_experiment,
    teacher_prototype_set,
    train_stage,
    write_reports,
    write_train_log,
    write_world_artifacts,
)
from xmodal.runconfig import RunConfig, adapter_config_for, canonical_config_text, config_hash, parse_config
from xmodal.storage import save_params
from xmodal.trainer import adapter_forward, init_params, train_adapter

from conftest import rank_by_score
from test_acceptance import oracle_ap
from test_evaluation import gaussian_set, traced_peak_mb

EXPECTED_REPORT_KEYS = {
    "audio_image_map.distilled",
    "audio_image_map.random_projection",
    "audio_image_map.text_mapping",
    "audio_image_map.cascaded_zero_shot",
    "knn_accuracy.raw",
    "knn_accuracy.distilled",
    "zero_shot_accuracy.distilled",
    "zero_shot_accuracy.random_projection",
    "text_audio_map.distilled",
}


@pytest.fixture(scope="module")
def small_result(small_run_config):
    return run_experiment(small_run_config, write=False)


@pytest.fixture(scope="module")
def small_trained(small_run_config, small_result):
    return train_stage(small_run_config, small_result.prepared, None)[1]


class TestPreparation:
    def test_teacher_prototype_set_is_variant_zero(self, small_world):
        protos = teacher_prototype_set(small_world)
        v = small_world.config.variant_count
        assert protos.n_items == 8
        assert np.array_equal(protos.labels, np.arange(8))
        assert np.array_equal(protos.matrix, small_world.teacher_text.matrix[::v])

    def test_embedded_audio_set(self, small_world):
        from conftest import SMALL_ADAPTER

        params = init_params(SMALL_ADAPTER, seed=0)
        audio = small_world.audio_features
        out = embedded_audio_set(SMALL_ADAPTER, params, audio)
        assert np.array_equal(out.labels, audio.labels)
        assert np.array_equal(out.matrix, adapter_forward(SMALL_ADAPTER, params, audio.matrix)[0])

    def test_prepare_world(self, small_run_config):
        prepared = prepare_world(small_run_config, "run")
        assert prepared.world.n_species == 8
        n_audio = prepared.train_view.audio_features.n_items + prepared.eval_view.audio_features.n_items
        assert n_audio == prepared.world.audio_features.n_items
        assert np.array_equal(prepared.teacher_prototypes.labels, np.arange(8))
        # train builds the audio prototypes from the train side only: row
        # s is the mean of species s's train clips.
        _, trained = train_stage(small_run_config, prepared, None)
        train_audio = prepared.train_view.audio_features
        assert np.array_equal(class_prototypes(train_audio).labels, np.arange(8))
        prototypes = trained["prototypes.xmpb"]["audio_prototypes"]
        assert prototypes.shape == (8, train_audio.dim)
        for species, row in enumerate(prototypes):
            assert np.allclose(row, train_audio.matrix[train_audio.labels == species].mean(axis=0), atol=1e-12)

    def test_chance_map_in_range(self, small_run_config):
        prepared = prepare_world(small_run_config, "run")
        value = chance_map(small_run_config, prepared)
        assert 0.0 < value < 1.0


class TestBaselineReports:
    def test_method_names(self):
        # The one list of methods: the baselines in summary order, then
        # the distilled student.
        assert BASELINES == ("random_projection", "text_mapping", "cascaded_zero_shot")
        assert SUMMARY_METHOD_ORDER == (*BASELINES, "distilled")

    @pytest.mark.parametrize("method", BASELINES)
    def test_baseline_command_scores_as_eval_does(self, method, small_run_config, small_result):
        key, report = baseline_report(small_run_config, small_result.prepared, method)
        from_eval = small_result.reports[key]
        assert key == f"audio_image_map.{method}"
        assert report.value == from_eval.value
        assert report.per_query == from_eval.per_query

    @pytest.mark.parametrize("method", ["distilled", "oracle", "Text_Mapping"])
    def test_unknown_baseline_rejected(self, method, small_result, small_run_config):
        with pytest.raises(InvalidConfigError, match=f"unknown baseline '{method}'"):
            baseline_report(small_run_config, small_result.prepared, method)

    def test_method_table_rejects_an_unknown_name(self, small_result, small_run_config, small_trained):
        # An unknown name is an error, not the last method of the table,
        # and is refused before any trained state is read. The message
        # lists every name the table accepts.
        names = ("raw", *SUMMARY_METHOD_ORDER)
        with pytest.raises(InvalidConfigError, match="unknown method 'cascade'") as raised:
            _method_audio(small_run_config, small_result.prepared, None, "cascade")
        assert str(raised.value).endswith(f"the methods are {', '.join(names)}")
        for name in names:
            _method_audio(small_run_config, small_result.prepared, small_trained, name)


class TestEvaluateTrained:
    def test_report_keys_and_ranges(self, small_result):
        assert set(small_result.reports) == EXPECTED_REPORT_KEYS
        for name, report in small_result.reports.items():
            assert 0.0 <= report.value <= 1.0, name

    def test_knn_is_leave_one_out_on_eval_split(self, small_result):
        for name in ("knn_accuracy.raw", "knn_accuracy.distilled"):
            assert small_result.reports[name].metadata["exclude_self"] is True

    def test_text_audio_map_truncated(self, small_result, small_run_config):
        assert small_result.reports["text_audio_map.distilled"].k == small_run_config.eval.map_k

    def test_scores_the_summary_table_building_each_method_once(
        self, small_result, small_run_config, small_trained, monkeypatch
    ):
        # The summary table is the one list of reports: every key but the
        # chance is scored, and each method named in it, raw included, is
        # built once, in the order the methods first appear.
        keys = [key for labels in pipeline._SUMMARY_BLOCKS.values() for key in labels if key != "chance_map"]
        built = []
        method_audio = pipeline._method_audio

        def spy(config, prepared, trained, method):
            built.append(method)
            return method_audio(config, prepared, trained, method)

        monkeypatch.setattr(pipeline, "_method_audio", spy)
        reports = pipeline.evaluate_trained(small_run_config, small_result.prepared, small_trained)
        assert built == list(dict.fromkeys(key.split(".")[1] for key in keys))
        assert set(built) == {"raw", *SUMMARY_METHOD_ORDER}
        assert sorted(reports) == sorted(keys)
        for key, report in reports.items():
            assert report.per_query == small_result.reports[key].per_query, key


class TestRenderSummary:
    def test_structure(self, small_result, small_run_config):
        summary = small_result.summary
        lines = summary.splitlines()
        assert lines[0] == "audio-to-image retrieval mAP (eval split)"
        for offset, method in enumerate(SUMMARY_METHOD_ORDER, start=1):
            assert lines[offset].strip().startswith(method)
        assert f"config_hash = {config_hash(small_result.config)}" in lines
        machine = [l for l in lines if l.startswith("summary.")]
        assert machine[-1].startswith("summary.chance_map = ")
        assert machine[:-1] == sorted(machine[:-1])
        for key in EXPECTED_REPORT_KEYS:
            assert f"summary.{key} = " in summary

    def test_deterministic_bytes(self, small_result, small_run_config):
        again = render_summary(small_run_config, small_result.reports, small_result.chance)
        assert again == small_result.summary


class TestRunExperiment:
    def test_result_fields(self, small_result, small_run_config):
        assert small_result.config == small_run_config
        assert len(small_result.train_report.loss_curve) == small_run_config.train.epochs
        assert small_result.summary.endswith("\n")

    def test_rerun_is_byte_identical(self, small_run_config, small_result):
        again = run_experiment(small_run_config, write=False)
        assert again.summary == small_result.summary
        assert again.train_report.loss_curve == small_result.train_report.loss_curve
        for key, value in small_result.train_report.final_params.items():
            assert np.array_equal(again.train_report.final_params[key], value)

    def test_write_false_writes_nothing(self, tmp_path, small_run_config, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_experiment(small_run_config, write=False)
        assert list(tmp_path.iterdir()) == []

    def test_artifacts_on_disk(self, tmp_path, small_run_config):
        out = tmp_path / "run"
        result = run_experiment(dataclasses.replace(small_run_config, output_dir=str(out)))
        expected = {
            "teacher_text.xmeb",
            "student_text.xmeb",
            "images.xmeb",
            "audio_features.xmeb",
            "config.txt",
            "params.xmpb",
            "prototypes.xmpb",
            "train_log.txt",
            "reports.txt",
            "summary.txt",
            "manifest.txt",
        }
        assert {p.name for p in out.iterdir()} == expected

        assert (out / "summary.txt").read_text() == result.summary

        config_text = (out / "config.txt").read_text()
        assert config_text.startswith(f"# config_hash = {config_hash(result.config)}\n")

        manifest = (out / "manifest.txt").read_text().splitlines()
        assert manifest[0] == f"config_hash = {config_hash(result.config)}"
        entries = [line.split(" = ")[1].split(" ") for line in manifest[1:]]
        assert [name for name, _, _ in entries] == sorted(expected - {"manifest.txt"})
        for name, size, digest in entries:
            data = (out / name).read_bytes()
            assert int(size) == len(data)
            assert digest == hashlib.sha256(data).hexdigest()

        params, stored_hash = load_params(out / "params.xmpb")
        assert stored_hash == config_hash(result.config)
        for key, value in result.train_report.final_params.items():
            assert np.array_equal(params[key], value)

        reports_text = (out / "reports.txt").read_text()
        assert reports_text.startswith(f"config_hash = {config_hash(result.config)}\n")
        for key in EXPECTED_REPORT_KEYS:
            assert f"{key}.value = " in reports_text
        assert "chance_map.value = " in reports_text

        train_log = (out / "train_log.txt").read_text().splitlines()
        assert train_log[1] == f"steps = {result.train_report.steps}"
        assert train_log[2].startswith("epoch 0 mean_loss = ")

        loaded_audio = read_embedding_set(out / "audio_features.xmeb")
        assert loaded_audio.n_items == result.prepared.world.audio_features.n_items

    def test_written_artifacts_reproducible(self, tmp_path, small_run_config, monkeypatch):
        # One relative output_dir, so both runs share a config hash.
        config = dataclasses.replace(small_run_config, output_dir="run")
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            run_experiment(config)
        a, b = tmp_path / "a" / "run", tmp_path / "b" / "run"
        for name in (
            "summary.txt", "reports.txt", "train_log.txt", "params.xmpb", "prototypes.xmpb", "audio_features.xmeb"
        ):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_write_world_artifacts_alone(self, tmp_path, small_run_config, small_world):
        names = write_world_artifacts(small_run_config, small_world, tmp_path)
        assert names == sorted(
            ["teacher_text.xmeb", "student_text.xmeb", "images.xmeb", "audio_features.xmeb"]
        )
        for name in names:
            assert (tmp_path / name).exists()

    def test_adapter_world_width_mismatch(self, small_run_config):
        bad_world = dataclasses.replace(small_run_config.world, d_student_in=9, seed=11)
        bad = dataclasses.replace(small_run_config, world=bad_world)
        # The adapter follows the world config, so this cannot actually
        # diverge through the public path; build the failure directly.
        adapter = adapter_config_for(small_run_config)
        assert adapter.d_in == small_run_config.world.d_student_in
        assert adapter_config_for(bad).d_in == 9


# SHA-256 of the default config's summary.txt and reports.txt, the README
# run. Evaluation may get faster but must not move a byte of either;
# reports.txt also prints every report's k and metadata.
DEFAULT_SUMMARY_SHA256 = "0067f866022d7c982067f6da633a67cde21d65173e33750429bd36722efc27b5"
DEFAULT_REPORTS_SHA256 = "7ebb57c010f5bb102dfd85c0a45c08f4d7ebca78865a07a00de388fbb3ecf47b"
# SHA-256 of the default config's prototypes.xmpb, the per-species tables
# that train writes and eval reads. Like the trained-weight pins below it
# holds for one BLAS kernel: mapped_text is the text map's output, trained
# and applied through `@`.
DEFAULT_PROTOTYPES_SHA256 = "8d7aed0654dd72edee0d4a262a9b0ee420832cc923b3b8e8d18482a7977b0142"


# SHA-256 of (params.xmpb, train_log.txt) trained on the default world,
# for each adapter mode and optimizer. Training may be restructured or
# sped up but must not move a byte of either file.
TRAINING_ARTIFACT_SHA256 = {
    "": (
        "8c75e369a1cb4c25f79a41b70a63253c6f2f1bad4ebff0fae7fa56636141d5db",
        "8ea02f5c8c0b2822a2cda96749c97bda0ed92c2bb5a8aeb553ba92a249f0797c",
    ),
    "adapter.mode = linear_head_only": (
        "fa5b326a8a8cc747d4fd5f8cb89c53b33dc2b442e8c76bfda2c896e42dedc5f2",
        "b8b3c9c3c2f8693c183121369f504c805fdfeb33c9b50f1c98a341a26986de1b",
    ),
    "train.optimizer = sgd_momentum": (
        "6f36a40c1a680eae5e4acc1b4960456c109ecae6696cc9f80999be9bec9c0543",
        "ba271cc3b7a02d95986eada5a2ba07bc5a4c86e657632f318da4ab3319328476",
    ),
    "adapter.mode = linear_head_only\ntrain.optimizer = sgd_momentum": (
        "23fe00aa7632840428b643bb9c19963212b95a4fff160855326f6df02c7306b3",
        "71b3f010731f64926e52ceb503c8718f38b99b40bded62df8b01c7874975d782",
    ),
}


@pytest.mark.parametrize(
    "overrides", list(TRAINING_ARTIFACT_SHA256), ids=["default", "linear", "sgd", "linear_sgd"]
)
def test_training_artifact_bytes_pinned(overrides, tmp_path):
    config = parse_config(overrides)
    prepared = prepare_world(config, "run")
    report = train_adapter(prepared.train_view, adapter_config_for(config), config.train)
    run_hash = config_hash(config)
    save_params(report.final_params, tmp_path / "params.xmpb", run_hash)
    write_train_log(report, tmp_path / "train_log.txt", run_hash)
    digests = tuple(
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("params.xmpb", "train_log.txt")
    )
    assert digests == TRAINING_ARTIFACT_SHA256[overrides]


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_module(name, monkeypatch):
    """A module of perfbench/, imported by path as the benchmark does."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def benchmark_op(workload, seed, tmp_path, monkeypatch):
    """Run the benchmark's op of ``workload`` at ``seed`` in ``tmp_path``,
    as the benchmark runs it; its output digests and the reference ones."""
    workloads = perfbench_module("workloads", monkeypatch)
    reference = workloads.load_reference()[workload][str(seed)]
    result = workloads.run_op(cli, workloads.WORKLOADS[workload], seed, tmp_path, None)
    assert result.ok, result.error
    return result.digests, reference


# The benchmark's eval_wide op: train then eval a 192-species world (1920
# eval clips x 960 images), so the cascade ranks the gallery for up to
# 192 predicted classes. Three seeds pin three worlds' cascade tie
# patterns. The configs and digests are read from perfbench/, which owns
# them.
@pytest.mark.parametrize("seed", [3, 7, 12])
def test_many_class_eval_bytes_match_the_benchmark_reference(seed, tmp_path, monkeypatch):
    digests, reference = benchmark_op("eval_wide", seed, tmp_path, monkeypatch)
    assert digests == reference


def test_long_training_bytes_match_the_benchmark_reference(tmp_path, monkeypatch):
    # The benchmark's train_long op: 150 epochs on the default world.
    digests, reference = benchmark_op("train_long", 7, tmp_path, monkeypatch)
    assert digests == reference


def test_default_pins_are_the_benchmark_reference():
    # default_run seed 7 is the default config, so the benchmark's
    # reference digests and this file's pins must not drift apart.
    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))["default_run"]["7"]
    assert reference == {"summary.txt": DEFAULT_SUMMARY_SHA256, "params.xmpb": TRAINING_ARTIFACT_SHA256[""][0]}


@pytest.mark.parametrize("world", ["default", "eval_wide"])
def test_text_mapping_map_matches_a_python_oracle(world, monkeypatch):
    # Each clip is ranked by the mapped text row of its predicted species.
    # A plain Python AP over the stable order (conftest.rank_by_score) of
    # those rows' similarities gives every per-query value of the report,
    # bit for bit, on the default world and the benchmark's eval_wide
    # world, both at seed 7.
    # The oracle scores the rows of the distinct predicted species, as
    # the baseline does, so it holds whichever BLAS kernel runs the
    # product.
    config = parse_config("")
    if world == "eval_wide":
        config = parse_config(perfbench_module("workloads", monkeypatch).EVAL_WIDE_CONFIG)
    prepared = prepare_world(config, "run")
    _, report = baseline_report(config, prepared, "text_mapping")
    _, table = text_mapping_baseline(prepared.world.student_text, prepared.teacher_prototypes, config.train)
    audio = prepared.eval_view.audio_features
    images = prepared.eval_view.images
    predicted, _ = nearest_prototype(audio, class_prototypes(prepared.train_view.audio_features))
    species = np.unique(predicted).tolist()
    assert len(species) < audio.n_items / 2
    mapped = table.take(np.searchsorted(table.labels, species))
    orders = rank_by_score(similarity_matrix(mapped, images)).tolist()
    image_labels = images.labels.tolist()
    per_query = []
    for label, guess in zip(audio.labels.tolist(), predicted.tolist()):
        n_rel = image_labels.count(label)
        if n_rel:
            flags = [image_labels[j] == label for j in orders[species.index(guess)]]
            per_query.append(oracle_ap(flags, n_rel))
    assert report.per_query == tuple(per_query)
    assert report.value == sum(per_query) / len(per_query)


def assert_rows_of(held, whole, rows):
    """``held`` is ``whole`` at positions ``rows``, bit for bit."""
    assert held.matrix.shape == (rows.size, whole.matrix.shape[1])
    assert held.matrix.tobytes() == whole.matrix[rows].tobytes()
    assert held.labels.tolist() == whole.labels[rows].tolist()


@pytest.mark.parametrize("command", list(_DRAWS))
@pytest.mark.parametrize("world", ["default", "eval_wide"])
def test_prepare_world_holds_each_side_at_its_split_rows(world, command, monkeypatch):
    # Each side holds the whole world's rows at its split_rows positions,
    # in each channel the command draws that side of, and no row in the
    # other channels; the world holds exactly the sorted union of the
    # drawn sides' rows of each channel.
    config = parse_config("")
    if world == "eval_wide":
        config = parse_config(perfbench_module("workloads", monkeypatch).EVAL_WIDE_CONFIG)
    prepared = prepare_world(config, command)
    whole = generate_world(config.world)
    split = dict(zip(("train", "eval"), split_rows(config.world, config.eval.holdout_fraction, config.world.seed)))
    views = {"train": prepared.train_view, "eval": prepared.eval_view}
    audio_sides, image_sides, _, _ = _DRAWS[command]
    for channel, drawn_sides, rows_of in (
        ("audio_features", audio_sides, lambda rows: rows.audio),
        ("images", image_sides, lambda rows: rows.images),
    ):
        union = np.sort(np.concatenate([np.empty(0, np.int64)] + [rows_of(split[name]) for name in drawn_sides]))
        assert_rows_of(getattr(prepared.world, channel), getattr(whole, channel), union)
        for name, view in views.items():
            rows = rows_of(split[name]) if name in drawn_sides else np.empty(0, np.int64)
            assert_rows_of(getattr(view, channel), getattr(whole, channel), rows)


@pytest.mark.parametrize("world", ["default", "eval_wide"])
def test_train_hands_over_the_prototypes_of_the_whole_worlds_train_rows(world, tmp_path, monkeypatch):
    # train draws only the train clips; the tables it writes, as eval
    # loads them, are the class means of the whole world's train rows and
    # the text map fitted on the whole world's student text and canonical
    # prompts, bit for bit. Both come with one row per species in species
    # order, which is what lets eval label the rows by species.
    text = "" if world == "default" else perfbench_module("workloads", monkeypatch).EVAL_WIDE_CONFIG
    config = parse_config(text)
    monkeypatch.chdir(tmp_path)
    Path("config.txt").write_text(text, encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["train", "--config", "config.txt"]) == 0
    tables = load_trained(config, Path(config.output_dir))["prototypes.xmpb"]
    train, _ = split_rows(config.world, config.eval.holdout_fraction, config.world.seed)
    whole = generate_world(config.world)
    expected = class_prototypes(whole.audio_features.take(train.audio))
    _, mapped = text_mapping_baseline(whole.student_text, teacher_prototype_set(whole), config.train)
    for name, table in (("audio_prototypes", expected), ("mapped_text", mapped)):
        assert (tables[name].dtype, tables[name].shape) == (table.matrix.dtype, table.matrix.shape)
        assert tables[name].tobytes() == table.matrix.tobytes()
        assert table.labels.tolist() == list(range(config.world.n_species))


@pytest.mark.parametrize("mode", ["mlp_encoder_plus_head", "linear_head_only"], ids=["mlp", "linear"])
def test_train_stage_returns_the_trained_state_that_eval_loads(mode, tmp_path, monkeypatch):
    # run scores the blobs that train_stage returns, and eval the ones
    # that load_trained reads back from train's directory. In either
    # adapter mode both hold exactly the arrays and shapes that
    # _blob_shapes lists, and the same arrays, bit for bit.
    config = parse_config(f"adapter.mode = {mode}")
    monkeypatch.chdir(tmp_path)
    out = Path(config.output_dir)
    _, returned = train_stage(config, prepare_world(config, "run"), out)
    loaded = load_trained(config, out)
    shapes = pipeline._blob_shapes(config)
    assert list(returned) == list(loaded) == list(shapes)
    for blob, arrays in returned.items():
        assert {name: array.shape for name, array in arrays.items()} == shapes[blob]
        assert sorted(loaded[blob]) == sorted(arrays)
        for name, array in arrays.items():
            assert (loaded[blob][name].dtype, loaded[blob][name].shape) == (array.dtype, array.shape)
            assert loaded[blob][name].tobytes() == array.tobytes()


@pytest.fixture(scope="module")
def eval_wide_adapter():
    """The benchmark's eval_wide config at seed 7: its adapter config, the
    params it trains and its eval clips."""
    with pytest.MonkeyPatch.context() as patch:
        config = parse_config(perfbench_module("workloads", patch).EVAL_WIDE_CONFIG)
    prepared = prepare_world(config, "run")
    report = train_adapter(prepared.train_view, adapter_config_for(config), config.train)
    return adapter_config_for(config), report.final_params, prepared.eval_view.audio_features


@pytest.mark.parametrize(
    "world, n_rows", [("default", 240), ("eval_wide", 257), ("eval_wide", 300), ("eval_wide", 1920)]
)
def test_embedded_audio_set_holds_the_bits_of_the_whole_forward(world, n_rows, request):
    # The eval forward runs in blocks of at least 256 rows at d_hidden =
    # 512, and their rows are bit-equal to the same rows of one whole
    # forward: the default eval split (240 clips, one block), all 1920
    # eval_wide clips (seven blocks), and prefixes of 257 and 300 clips,
    # whose tail after one 256-row block would be 1 and 44 rows: short
    # enough for OpenBLAS's small-matrix path, which changes the bits.
    if world == "default":
        result, _ = request.getfixturevalue("default_experiment")
        adapter = adapter_config_for(result.config)
        params, clips = result.train_report.final_params, result.prepared.eval_view.audio_features
    else:
        adapter, params, clips = request.getfixturevalue("eval_wide_adapter")
    assert clips.n_items == {"default": 240, "eval_wide": 1920}[world]
    clips = clips.take(np.arange(n_rows))
    whole = adapter_forward(adapter, params, clips.matrix)[0]
    blocked = embedded_audio_set(adapter, params, clips)
    assert blocked.matrix.shape == whole.shape
    assert blocked.matrix.tobytes() == whole.tobytes()
    assert blocked.labels.tolist() == clips.labels.tolist()


def test_embedded_audio_set_holds_no_whole_hidden_activation():
    # 1920 clips through the default adapter: one whole forward holds a
    # 1920 x 512 float64 hidden activation (7.5 MB); the blocks hold at
    # most 511 rows of it at a time, next to the 0.5 MB output.
    adapter = adapter_config_for(parse_config(""))
    params = init_params(adapter, seed=7)
    clips = gaussian_set(1920, adapter.d_in, 0)
    assert traced_peak_mb(lambda: embedded_audio_set(adapter, params, clips)) < 2.0


def test_benchmark_tracer_wraps_and_restores_ranked_list(monkeypatch):
    # The benchmark's tracer binds evaluation.RankedList.__init__ by name
    # when it is built, so a rename of the class or of its constructor
    # crashes every traced run before its first op.
    spans = perfbench_module("spans", monkeypatch)
    init = evaluation.RankedList.__init__
    tracer = spans.Tracer()
    tracer.begin_op(0)
    tracer.install()
    try:
        assert evaluation.RankedList.__init__ is not init
        evaluation.RankedList([0], [[0.1, 0.9]], [1, 0])
    finally:
        tracer.remove()
        tracer.end_op()
    assert evaluation.RankedList.__init__ is init
    assert [span[spans.NAME] for span in tracer.op_spans(0)] == ["evaluation.RankedList"]


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_block_after(marker):
    """The text of the first fenced block after the README line that ends with ``marker``."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.endswith(marker))
    opening = next(i for i in range(start + 1, len(lines)) if lines[i].startswith("```"))
    closing = next(i for i in range(opening + 1, len(lines)) if lines[i].startswith("```"))
    return "".join(line + "\n" for line in lines[opening + 1 : closing])


class TestReadmeDefaults:
    """The README's printed defaults and quick-start output are the program's own."""

    def test_defaults_block_is_the_canonical_default_text(self):
        assert readme_block_after("The defaults:") == canonical_config_text(RunConfig())

    def test_quick_start_block_is_the_head_of_the_default_summary(self, default_experiment):
        result, _ = default_experiment
        *head, last = readme_block_after("which trains the default configuration and prints:").splitlines()
        assert last == "..."  # the summary.* lines follow
        assert result.summary.startswith("".join(line + "\n" for line in head))


class TestDefaultConfigOrdering:
    def test_summary_bytes_pinned(self, default_experiment):
        result, _ = default_experiment
        assert hashlib.sha256(result.summary.encode("utf-8")).hexdigest() == DEFAULT_SUMMARY_SHA256

    def test_reports_bytes_pinned(self, default_experiment, tmp_path):
        result, _ = default_experiment
        write_reports(result.reports, result.chance, tmp_path / "reports.txt", config_hash(result.config))
        assert hashlib.sha256((tmp_path / "reports.txt").read_bytes()).hexdigest() == DEFAULT_REPORTS_SHA256

    def test_prototypes_bytes_pinned(self, default_experiment, tmp_path):
        result, _ = default_experiment
        train_stage(result.config, result.prepared, tmp_path)
        assert hashlib.sha256((tmp_path / "prototypes.xmpb").read_bytes()).hexdigest() == DEFAULT_PROTOTYPES_SHA256

    def test_distilled_clears_text_mapping_and_random(self, default_experiment):
        result, _ = default_experiment
        maps = {m: result.reports[f"audio_image_map.{m}"].value for m in SUMMARY_METHOD_ORDER}
        assert maps["random_projection"] < maps["text_mapping"] < maps["distilled"]

    @pytest.mark.xfail(
        reason="the connected pipeline outranks the distilled model on this"
        " world: its supervised audio stage is near ceiling, so error"
        " propagation never bites",
        strict=True,
    )
    def test_distilled_tops_the_summary_column(self, default_experiment):
        result, _ = default_experiment
        maps = {m: result.reports[f"audio_image_map.{m}"].value for m in SUMMARY_METHOD_ORDER}
        assert all(maps["distilled"] > maps[m] for m in SUMMARY_METHOD_ORDER if m != "distilled")

    @pytest.mark.xfail(
        reason="the connected pipeline outranks the distilled model on this"
        " world: its supervised audio stage is near ceiling, so error"
        " propagation never bites",
        strict=True,
    )
    def test_cascade_below_distilled(self, default_experiment):
        result, _ = default_experiment
        assert (
            result.reports["audio_image_map.cascaded_zero_shot"].value
            < result.reports["audio_image_map.distilled"].value
        )
