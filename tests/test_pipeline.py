"""End-to-end experiment pipeline: preparation, evaluation, artifacts."""

import dataclasses
import hashlib

import numpy as np
import pytest

from xmodal import (
    BaselineKind,
    InvalidConfigError,
    RunConfig,
    load_params,
    read_embedding_set,
)
from xmodal.pipeline import (
    SUMMARY_METHOD_ORDER,
    baseline_report,
    chance_map,
    embedded_audio_set,
    evaluate_trained,
    prepare_world,
    render_summary,
    run_experiment,
    teacher_prototype_set,
    write_world_artifacts,
)
from xmodal.runconfig import adapter_config_for, config_hash
from xmodal.trainer import embed_audio, init_params

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
        assert np.array_equal(out.matrix, embed_audio(SMALL_ADAPTER, params, audio.matrix))
        assert not out.normalized

    def test_prepare_world(self, small_run_config):
        prepared = prepare_world(small_run_config)
        assert prepared.world.n_species == 8
        n_audio = prepared.train_view.audio_features.n_items + prepared.eval_view.audio_features.n_items
        assert n_audio == prepared.world.audio_features.n_items
        assert np.array_equal(prepared.teacher_prototypes.labels, np.arange(8))
        # Audio prototypes come from the train side only.
        assert np.array_equal(prepared.audio_prototypes.labels, np.arange(8))
        sp0 = prepared.train_view.audio_features.matrix[
            prepared.train_view.audio_features.labels == 0
        ]
        assert np.allclose(prepared.audio_prototypes.matrix[0], sp0.mean(axis=0), atol=1e-12)

    def test_chance_map_in_range(self, small_run_config):
        prepared = prepare_world(small_run_config)
        value = chance_map(small_run_config, prepared)
        assert 0.0 < value < 1.0


class TestBaselineReports:
    def test_metric_names(self, small_run_config):
        prepared = prepare_world(small_run_config)
        for kind in BaselineKind:
            report = baseline_report(small_run_config, prepared, kind)
            assert report.metric_name == f"audio_image_map.{kind.value}"
            assert 0.0 <= report.value <= 1.0


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


class TestRenderSummary:
    def test_structure(self, small_result, small_run_config):
        summary = small_result.summary
        lines = summary.splitlines()
        assert lines[0] == "audio-to-image retrieval mAP (eval split)"
        for offset, method in enumerate(SUMMARY_METHOD_ORDER, start=1):
            assert lines[offset].strip().startswith(method)
        assert f"config_hash = {small_result.config_hash}" in lines
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
        assert small_result.config_hash == config_hash(small_run_config)
        assert len(small_result.train_report.loss_curve) == small_run_config.train.epochs
        assert small_result.text_mapping.mapped_prototypes.n_items == 8
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
        result = run_experiment(small_run_config, output_dir=out)
        expected = {
            "teacher_text.xmeb",
            "student_text.xmeb",
            "images.xmeb",
            "audio_features.xmeb",
            "config.txt",
            "params.xmpb",
            "train_log.txt",
            "reports.txt",
            "summary.txt",
            "manifest.txt",
        }
        assert {p.name for p in out.iterdir()} == expected

        assert (out / "summary.txt").read_text() == result.summary

        config_text = (out / "config.txt").read_text()
        assert config_text.startswith(f"# config_hash = {result.config_hash}\n")

        manifest = (out / "manifest.txt").read_text().splitlines()
        assert manifest[0] == f"config_hash = {result.config_hash}"
        listed = {l.split(" = ")[1] for l in manifest[1:]}
        assert listed == expected - {"manifest.txt"}

        params, stored_hash = load_params(out / "params.xmpb")
        assert stored_hash == result.config_hash
        for key, value in result.train_report.final_params.items():
            assert np.array_equal(params[key], value)

        reports_text = (out / "reports.txt").read_text()
        assert reports_text.startswith(f"config_hash = {result.config_hash}\n")
        for key in EXPECTED_REPORT_KEYS:
            assert f"{key}.value = " in reports_text
        assert "chance_map.value = " in reports_text

        train_log = (out / "train_log.txt").read_text().splitlines()
        assert train_log[1] == f"steps = {result.train_report.steps}"
        assert train_log[2].startswith("epoch 0 mean_loss = ")

        loaded_audio = read_embedding_set(out / "audio_features.xmeb")
        assert loaded_audio.n_items == result.prepared.world.audio_features.n_items

    def test_written_artifacts_reproducible(self, tmp_path, small_run_config):
        run_experiment(small_run_config, output_dir=tmp_path / "a")
        run_experiment(small_run_config, output_dir=tmp_path / "b")
        for name in ("summary.txt", "reports.txt", "train_log.txt", "params.xmpb", "audio_features.xmeb"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

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


# SHA-256 of the default config's summary.txt, the README run. Evaluation
# may get faster but must not move a byte of it.
DEFAULT_SUMMARY_SHA256 = "0067f866022d7c982067f6da633a67cde21d65173e33750429bd36722efc27b5"


class TestDefaultConfigOrdering:
    def test_summary_bytes_pinned(self, default_experiment):
        result, _ = default_experiment
        assert hashlib.sha256(result.summary.encode("utf-8")).hexdigest() == DEFAULT_SUMMARY_SHA256

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
