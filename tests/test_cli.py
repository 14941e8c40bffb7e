"""CLI subcommands, exercised in-process through main()."""

import contextlib
import hashlib
import io
import os
import re
import shutil
import stat
import struct
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from xmodal import (
    generate_world,
    load_params,
    read_embedding_set,
    save_params,
    split_rows,
)
from xmodal import baselines as baselines_module
from xmodal import cli as cli_module
from xmodal import world as world_module
from xmodal.cli import build_parser, main
from xmodal.pipeline import _DRAWS
from xmodal.runconfig import parse_config

SMALL_CONFIG = """
world.seed = 11
world.n_families = 2
world.genera_per_family = 2
world.species_per_genus = 2
world.d_teacher = 12
world.d_student_in = 8
world.d_student = 10
world.variant_count = 2
world.audio_per_species = 6
world.images_per_species = 4
train.batch_size = 4
train.epochs = 3
train.seed = 5
eval.knn_k = 3
eval.map_k = 50
eval.chance_trials = 50
adapter.d_hidden = 16
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text(SMALL_CONFIG + f"output_dir = {tmp_path / 'out'}\n", encoding="utf-8")
    return path


def run_cli(*argv):
    return main(list(argv))


class TestParser:
    def test_subcommands(self):
        parser = build_parser()
        for command in ("gen", "train", "eval", "baseline", "run"):
            args = parser.parse_args(
                [command] + (["--kind", "random_projection"] if command == "baseline" else [])
            )
            assert args.command == command
        assert parser.parse_args(["verify", "runs/default"]).dir == Path("runs/default")

    def test_verify_takes_no_config(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify", "runs/default", "--config", "x.txt"])

    def test_baseline_requires_kind(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["baseline"])

    def test_invalid_kind_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["baseline", "--kind", "oracle"])

    def test_kind_choices_in_summary_order(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["baseline", "--help"])
        assert "--kind {random_projection,text_mapping,cascaded_zero_shot}" in capsys.readouterr().out


class TestGen:
    def test_writes_world_files(self, config_path, tmp_path, capsys):
        assert run_cli("gen", "--config", str(config_path)) == 0
        out = tmp_path / "out"
        for name in ("teacher_text.xmeb", "student_text.xmeb", "images.xmeb", "audio_features.xmeb"):
            assert (out / name).exists()
        captured = capsys.readouterr()
        assert captured.out.startswith("config_hash = ")
        assert captured.out.count("wrote ") == 4

    def test_gen_deterministic(self, config_path, tmp_path, capsys):
        run_cli("gen", "--config", str(config_path))
        first = (tmp_path / "out" / "audio_features.xmeb").read_bytes()
        run_cli("gen", "--config", str(config_path))
        assert (tmp_path / "out" / "audio_features.xmeb").read_bytes() == first


class TestTrain:
    def test_writes_params_and_log(self, config_path, tmp_path, capsys):
        assert run_cli("train", "--config", str(config_path)) == 0
        out = tmp_path / "out"
        params, stored_hash = load_params(out / "params.xmpb")
        assert set(params) == {"enc1_w", "enc1_b", "enc2_w", "enc2_b", "head_w", "head_b"}
        captured = capsys.readouterr()
        assert f"config_hash = {stored_hash}" in captured.out
        assert "steps = " in captured.out
        assert "final_epoch_loss = " in captured.out
        log = (out / "train_log.txt").read_text()
        assert log.splitlines()[0] == f"config_hash = {stored_hash}"
        assert "epoch 2 mean_loss = " in log


class TestEval:
    def test_eval_after_train(self, config_path, tmp_path, capsys):
        run_cli("train", "--config", str(config_path))
        capsys.readouterr()
        assert run_cli("eval", "--config", str(config_path)) == 0
        captured = capsys.readouterr()
        out = tmp_path / "out"
        assert (out / "summary.txt").read_text() == captured.out
        assert "audio-to-image retrieval mAP" in captured.out
        assert (out / "reports.txt").exists()

    def test_eval_without_params_fails(self, config_path, capsys):
        assert run_cli("eval", "--config", str(config_path)) == 2
        assert "error:" in capsys.readouterr().err

    def test_eval_params_directory_exit_2(self, config_path, tmp_path, capsys):
        # Any OSError while reading an artifact ends in error: and exit 2.
        (tmp_path / "out" / "params.xmpb").mkdir(parents=True)
        assert run_cli("eval", "--config", str(config_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "params.xmpb" in err

    def test_eval_rejects_config_mismatch(self, config_path, tmp_path, capsys):
        run_cli("train", "--config", str(config_path))
        # Same output dir, different effective config via the seed override.
        assert run_cli("eval", "--config", str(config_path), "--seed", "99") == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "trained under config" in err

    def test_eval_rejects_non_finite_params(self, config_path, tmp_path, capsys):
        run_cli("train", "--config", str(config_path))
        blob = tmp_path / "out" / "params.xmpb"
        # Arrays are written sorted by name, so the last 8 bytes are head_w's last value.
        blob.write_bytes(blob.read_bytes()[:-8] + struct.pack("<d", float("nan")))
        capsys.readouterr()
        assert run_cli("eval", "--config", str(config_path)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: array 'head_w' holds non-finite value nan at index ")
        assert not (tmp_path / "out" / "summary.txt").exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda p: {("w1" if k == "enc1_w" else k): v for k, v in p.items()}, "w1"),
            (lambda p: {**p, "enc1_w": p["enc1_w"][:, :-1]}, r"\('enc1_w', \(16, 7\)\)"),
        ],
        ids=["renamed_array", "wrong_shape"],
    )
    def test_eval_rejects_params_that_do_not_fit(self, config_path, tmp_path, capsys, edit, message):
        run_cli("train", "--config", str(config_path))
        blob = tmp_path / "out" / "params.xmpb"
        params, stored_hash = load_params(blob)
        save_params(edit(params), blob, stored_hash)
        capsys.readouterr()
        assert run_cli("eval", "--config", str(config_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: params blob at {blob} holds [")
        assert re.search(message, err)


    @pytest.mark.parametrize("edit", ["other_config", "wrong_shape"])
    def test_eval_refuses_a_blob_before_generating_the_world(self, config_path, tmp_path, capsys, edit):
        run_cli("train", "--config", str(config_path))
        blob = tmp_path / "out" / "params.xmpb"
        params, stored_hash = load_params(blob)
        seed = []
        if edit == "other_config":
            seed = ["--seed", "99"]
            expected = f"error: params blob at {blob} was trained under config {stored_hash}, but the current config"
        else:
            save_params({**params, "head_w": params["head_w"][:, :-1]}, blob, stored_hash)
            expected = f"error: params blob at {blob} holds ["
        capsys.readouterr()
        with mock.patch("xmodal.cli.prepare_world") as prepare_world:
            assert run_cli("eval", "--config", str(config_path), *seed) == 2
        prepare_world.assert_not_called()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(expected)
        if edit == "wrong_shape":
            assert re.search(r"\('head_w', \(12, 9\)\)", captured.err)

    @pytest.mark.parametrize(
        "edit, message",
        [
            ("missing", "is missing; run `xmodal train` with this config first"),
            ("other_config", "was trained under config 0123456789abcdef, but the current config hashes to "),
            (
                "wrong_shape",
                "holds [('audio_prototypes', (8, 7)), ('mapped_text', (8, 12))], "
                "not [('audio_prototypes', (8, 8)), ('mapped_text', (8, 12))]",
            ),
            ("extra_array", "holds [('audio_prototypes', (8, 8)), ('extra', (1,)), ('mapped_text', (8, 12))], not "),
            ("renamed_array", "holds [('mapped_text', (8, 12)), ('prototypes', (8, 8))], not "),
            (
                "mapped_text_missing",
                "holds [('audio_prototypes', (8, 8))], not [('audio_prototypes', (8, 8)), ('mapped_text', (8, 12))]",
            ),
            ("mapped_text_wrong_width", "holds [('audio_prototypes', (8, 8)), ('mapped_text', (8, 11))], not "),
            ("mapped_text_renamed", "holds [('audio_prototypes', (8, 8)), ('text_table', (8, 12))], not "),
        ],
    )
    def test_eval_refuses_a_prototypes_blob_before_generating_the_world(
        self, config_path, tmp_path, capsys, edit, message
    ):
        # eval reads the two per-species tables that train wrote, and
        # checks them against the config before it draws any world row.
        # Each edit changes one thing of the blob.
        run_cli("train", "--config", str(config_path))
        blob = tmp_path / "out" / "prototypes.xmpb"
        arrays, stored_hash = load_params(blob)
        table, mapped = arrays["audio_prototypes"], arrays["mapped_text"]
        if edit == "missing":
            blob.unlink()
        elif edit == "other_config":
            save_params(arrays, blob, "0123456789abcdef")
        else:
            edited = {
                "wrong_shape": {**arrays, "audio_prototypes": table[:, :-1]},
                "extra_array": {**arrays, "extra": np.zeros(1)},
                "renamed_array": {"prototypes": table, "mapped_text": mapped},
                "mapped_text_missing": {"audio_prototypes": table},
                "mapped_text_wrong_width": {**arrays, "mapped_text": mapped[:, :-1]},
                "mapped_text_renamed": {"audio_prototypes": table, "text_table": mapped},
            }[edit]
            save_params(edited, blob, stored_hash)
        capsys.readouterr()
        with mock.patch("xmodal.cli.prepare_world") as prepare_world:
            assert run_cli("eval", "--config", str(config_path)) == 2
        prepare_world.assert_not_called()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {blob}" if edit == "missing" else f"error: prototypes blob at {blob} ")
        assert message in captured.err
        assert not (tmp_path / "out" / "summary.txt").exists()

    def test_eval_fits_nothing_and_writes_the_summary_of_run(self, config_path, tmp_path, capsys):
        # train fits every learned object and eval only scores: with fit
        # refused wherever it is looked up, eval still writes the bytes
        # of an unpatched run's summary.
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(config_path)) == 0
        from_run = (out / "summary.txt").read_bytes()
        shutil.rmtree(out)
        assert run_cli("train", "--config", str(config_path)) == 0
        refuse = mock.Mock(side_effect=AssertionError("eval called fit"))
        with mock.patch("xmodal.baselines.fit", refuse), mock.patch("xmodal.trainer.fit", refuse):
            assert run_cli("eval", "--config", str(config_path)) == 0
        refuse.assert_not_called()
        assert (out / "summary.txt").read_bytes() == from_run


@pytest.fixture(scope="module")
def default_run_reports(tmp_path_factory):
    """``reports.txt`` of ``xmodal run`` on the default config, as {key: value}."""
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(tmp_path_factory.mktemp("default_run"))
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_cli("run") == 0
        lines = Path("runs/default/reports.txt").read_text(encoding="utf-8").splitlines()
    return dict(line.split(" = ") for line in lines)


class TestBaseline:
    @pytest.mark.parametrize("kind", ["random_projection", "text_mapping", "cascaded_zero_shot"])
    def test_each_kind(self, config_path, kind, capsys):
        assert run_cli("baseline", "--config", str(config_path), "--kind", kind) == 0
        out = capsys.readouterr().out
        assert f"audio_image_map.{kind} = " in out

    @pytest.mark.parametrize("kind", ["random_projection", "text_mapping", "cascaded_zero_shot"])
    def test_default_config_prints_the_key_and_value_of_run(self, kind, default_run_reports, capsys):
        # The baseline prints its report under the key reports.txt files
        # it under, with the value that ``run`` writes there. Only
        # text_mapping scores the text map, so only it fits the map.
        with mock.patch("xmodal.baselines.fit", wraps=baselines_module.fit) as fit:
            assert run_cli("baseline", "--kind", kind) == 0
        assert fit.call_count == (1 if kind == "text_mapping" else 0)
        value = default_run_reports[f"audio_image_map.{kind}.value"]
        assert default_run_reports["config_hash"] == "65edaf666cf456f0"
        assert capsys.readouterr().out == f"config_hash = 65edaf666cf456f0\naudio_image_map.{kind} = {value}\n"


class TestRun:
    def test_full_run(self, config_path, tmp_path, capsys):
        assert run_cli("run", "--config", str(config_path)) == 0
        out = tmp_path / "out"
        assert (out / "manifest.txt").exists()
        assert (out / "summary.txt").read_text() == capsys.readouterr().out

    def test_run_reproducible(self, config_path, tmp_path, capsys):
        run_cli("run", "--config", str(config_path))
        first = (tmp_path / "out" / "summary.txt").read_bytes()
        run_cli("run", "--config", str(config_path))
        assert (tmp_path / "out" / "summary.txt").read_bytes() == first

    def test_run_writes_the_bytes_of_gen_then_train_then_eval(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"

        def digests():
            return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}

        assert run_cli("run", "--config", str(config_path)) == 0
        from_run = digests()
        assert len(from_run) == 11 and "manifest.txt" in from_run
        shutil.rmtree(out)
        for command in ("gen", "train", "eval"):
            assert run_cli(command, "--config", str(config_path)) == 0
        assert digests() == from_run

    def test_manifest_matches_every_file_after_later_commands(self, config_path, tmp_path, capsys):
        # World files and config.txt stay from run; the other files are new.
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(config_path)) == 0
        for command in ("train", "eval"):
            assert run_cli(command, "--config", str(config_path), "--seed", "21") == 0
        manifest = (out / "manifest.txt").read_text().splitlines()
        entries = [line.split(" = ", 1)[1].split(" ") for line in manifest[1:]]
        listed = sorted(path.name for path in out.iterdir() if path.name != "manifest.txt")
        assert [name for name, _, _ in entries] == listed
        for name, size, digest in entries:
            data = (out / name).read_bytes()
            assert (int(size), digest) == (len(data), hashlib.sha256(data).hexdigest()), name
        _, seed_21_hash = load_params(out / "params.xmpb")
        assert manifest[0] == f"config_hash = {seed_21_hash}"

    def test_artifacts_get_the_umask_mode_and_no_temp_files(self, config_path, tmp_path, capsys):
        old = os.umask(0o022)
        try:
            assert run_cli("run", "--config", str(config_path)) == 0
        finally:
            os.umask(old)
        files = sorted((tmp_path / "out").iterdir())
        assert len(files) == 11
        for path in files:
            assert stat.S_IMODE(path.stat().st_mode) == 0o644, path.name

    def test_seed_override_changes_hash_and_world(self, config_path, tmp_path, capsys):
        run_cli("run", "--config", str(config_path))
        base_summary = (tmp_path / "out" / "summary.txt").read_text()
        base_audio = read_embedding_set(tmp_path / "out" / "audio_features.xmeb")
        run_cli("run", "--config", str(config_path), "--seed", "21")
        new_summary = (tmp_path / "out" / "summary.txt").read_text()
        new_audio = read_embedding_set(tmp_path / "out" / "audio_features.xmeb")

        def hash_of(text):
            for line in text.splitlines():
                if line.startswith("config_hash = "):
                    return line.split(" = ")[1]
            raise AssertionError("no hash line")

        assert hash_of(new_summary) != hash_of(base_summary)
        assert not np.array_equal(new_audio.matrix, base_audio.matrix)


def _flip_last_byte(path):
    data = path.read_bytes()
    path.write_bytes(data[:-1] + bytes([data[-1] ^ 1]))


def _edit_manifest(out, edit):
    manifest = out / "manifest.txt"
    manifest.write_text(edit(manifest.read_text(encoding="utf-8")), encoding="utf-8")


class TestVerify:
    def test_every_writing_command_leaves_a_verified_directory(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        for command, n_artifacts in (("gen", 5), ("train", 8), ("eval", 10), ("run", 10)):
            assert run_cli(command, "--config", str(config_path)) == 0
            capsys.readouterr()
            assert run_cli("verify", str(out)) == 0
            run_hash = (out / "manifest.txt").read_text().splitlines()[0]
            assert capsys.readouterr().out == f"{run_hash}\n{n_artifacts} artifacts match {out / 'manifest.txt'}\n"

    @pytest.mark.parametrize(
        "edit, named, message",
        [
            # params.xmpb is listed before summary.txt, so it is named first.
            (
                lambda out: [_flip_last_byte(out / name) for name in ("summary.txt", "params.xmpb")],
                "params.xmpb",
                r"does not match .*manifest.txt: it has \d+ bytes with SHA-256 [0-9a-f]{64}, the manifest lists",
            ),
            (
                lambda out: [(out / name).unlink() for name in ("train_log.txt", "prototypes.xmpb")],
                "prototypes.xmpb",
                r"is listed in .*manifest.txt but missing",
            ),
            (
                lambda out: _edit_manifest(out, lambda text: re.sub(r"artifact = summary.txt .*\n", "", text)),
                "summary.txt",
                r"is present but .*manifest.txt does not list it",
            ),
            (
                lambda out: _edit_manifest(out, lambda text: text.replace("config_hash = ", "config_hash = x", 1)),
                "manifest.txt",
                r"line 1 is not a 'config_hash = <16 hex digits>' line",
            ),
            (
                lambda out: _edit_manifest(out, lambda text: text.replace("artifact = config.txt", "artifact = ../x")),
                "manifest.txt",
                r"line 3 is not an artifact line of a known artifact, in name order",
            ),
            (
                lambda out: _edit_manifest(out, lambda text: text + text.splitlines()[-1] + "\n"),
                "manifest.txt",
                r"line 12 is not an artifact line of a known artifact, in name order",
            ),
            (lambda out: (out / "manifest.txt").unlink(), "manifest.txt", "No such file"),
        ],
        ids=["changed", "missing", "unlisted", "bad_hash_line", "unknown_name", "listed_twice", "no_manifest"],
    )
    def test_exit_2_names_the_first_file_that_differs(self, config_path, tmp_path, capsys, edit, named, message):
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(config_path)) == 0
        edit(out)
        capsys.readouterr()
        assert run_cli("verify", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        first_path = re.search(r"/\S+", captured.err)[0].rstrip(":'")
        assert Path(first_path).name == named
        assert re.search(message, captured.err)


class TestRowsEachStageDraws:
    """Each command draws only the world rows it reads, bit-equal to the whole world's."""

    def run(self, config_path, command, *extra):
        """Run one command; (draws as (stream name, row count), PreparedWorlds the CLI built)."""
        draws, prepared = [], []
        draw_streams, prepare = world_module.draw_streams, cli_module.prepare_world

        def recording_draw(out, seed, name, keys, *args):
            draws.append((name, len(keys)))
            return draw_streams(out, seed, name, keys, *args)

        def recording_prepare(*args, **kwargs):
            prepared.append(prepare(*args, **kwargs))
            return prepared[-1]

        with mock.patch.object(world_module, "draw_streams", recording_draw), mock.patch.object(
            cli_module, "prepare_world", recording_prepare
        ):
            assert run_cli(command, "--config", str(config_path), *extra) == 0
        return draws, prepared

    @staticmethod
    def config_of(config_path):
        return parse_config(config_path.read_text(encoding="utf-8"))

    @pytest.mark.parametrize("command", ["eval", "baseline"])
    def test_eval_stages_hold_the_eval_image_rows(self, config_path, command):
        run_cli("train", "--config", str(config_path))
        extra = ["--kind", "cascaded_zero_shot"] if command == "baseline" else []
        draws, (prepared,) = self.run(config_path, command, *extra)
        config = self.config_of(config_path)
        _, eval_rows = split_rows(config.world, config.eval.holdout_fraction, config.world.seed)
        whole = generate_world(config.world).images
        assert ("image", eval_rows.images.size) in draws
        for held in (prepared.world.images, prepared.eval_view.images):
            assert held.matrix.tobytes() == whole.matrix[eval_rows.images].tobytes()
            assert held.labels.tolist() == whole.labels[eval_rows.images].tolist()
        assert prepared.train_view.images.n_items == 0

    def test_train_draws_no_image_row(self, config_path):
        draws, (prepared,) = self.run(config_path, "train")
        assert sum(n_keys for name, n_keys in draws if name == "image") == 0
        assert prepared.world.images.n_items == 0

    def test_gen_and_run_draw_every_image_row(self, config_path):
        world = self.config_of(config_path).world
        n_images = world.n_species * world.images_per_species
        for command in ("gen", "run"):
            draws, _ = self.run(config_path, command)
            assert ("image", n_images) in draws
            assert ("audio", world.n_species * world.audio_per_species) in draws
            assert ("teacher_text", world.n_species * world.variant_count) in draws

    @pytest.mark.parametrize("command", ["gen", "train", "eval", "baseline"])
    def test_each_stage_draws_its_clips_and_prompts(self, config_path, command):
        # Each command draws the clips of its audio sides, every prompt
        # variant or only the canonical ones, and the student text or none
        # of it, as the draw table says.
        if command in ("eval", "baseline"):
            run_cli("train", "--config", str(config_path))
        extra = ["--kind", "text_mapping"] if command == "baseline" else []
        draws, (prepared,) = self.run(config_path, command, *extra)
        config = self.config_of(config_path)
        whole = generate_world(config.world)
        split = dict(zip(("train", "eval"), split_rows(config.world, config.eval.holdout_fraction, config.world.seed)))
        sides, _, every_prompt, student_text = _DRAWS[command]
        canonical = np.arange(config.world.n_species) * config.world.variant_count
        prompts = np.arange(whole.teacher_text.n_items) if every_prompt else canonical
        audio = np.sort(np.concatenate([split[side].audio for side in sides]))
        assert [n for name, n in draws if name == "audio"] == [audio.size]
        assert [n for name, n in draws if name == "teacher_text"] == [prompts.size]
        student_draws = [(name, n) for name, n in draws if name.startswith("student_")]
        expected = [("student_anchor", config.world.n_genera), ("student_text", config.world.n_species)]
        assert student_draws == (expected if student_text else [])

        def assert_rows_of(held, whole_set, rows):
            assert held.matrix.tobytes() == whole_set.matrix[rows].tobytes()
            assert held.labels.tolist() == whole_set.labels[rows].tolist()

        assert_rows_of(prepared.world.audio_features, whole.audio_features, audio)
        assert_rows_of(prepared.world.teacher_text, whole.teacher_text, prompts)
        assert_rows_of(prepared.teacher_prototypes, whole.teacher_text, canonical)
        assert_rows_of(prepared.world.student_text, whole.student_text, slice(None) if student_text else slice(0))
        for name, view in (("train", prepared.train_view), ("eval", prepared.eval_view)):
            rows = split[name].audio if name in sides else np.empty(0, np.int64)
            assert_rows_of(view.audio_features, whole.audio_features, rows)

    @pytest.mark.parametrize("command", ["gen", "train", "eval", "baseline", "run"])
    def test_split_permutations_drawn_once_per_stage(self, config_path, command):
        if command in ("eval", "baseline"):
            run_cli("train", "--config", str(config_path))
        extra = ["--kind", "random_projection"] if command == "baseline" else []
        draws, _ = self.run(config_path, command, *extra)
        names = [name for name, _ in draws]
        assert (names.count("split_audio"), names.count("split_image")) == (1, 1)


class TestErrors:
    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("world.speed = 7\n", encoding="utf-8")
        assert run_cli("gen", "--config", str(bad)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "world.speed" in err

    def test_bad_value_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("train.tau = 0\n", encoding="utf-8")
        assert run_cli("run", "--config", str(bad)) == 2
        assert "train.tau" in capsys.readouterr().err

    def test_nan_mixture_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text(f"train.prompt_mixture = nan, 0.5, 0.5\noutput_dir = {tmp_path / 'out'}\n", encoding="utf-8")
        assert run_cli("train", "--config", str(bad)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 1: train.prompt_mixture")
        assert "Traceback" not in err

    def test_negative_seed_exit_2(self, config_path, tmp_path, capsys):
        assert run_cli("gen", "--config", str(config_path), "--seed", "-1") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "seed must be >= 0" in err
        # --seed is a setting of the config keys, so the error names the key it set.
        assert "world.seed" in err
        assert not (tmp_path / "out").exists()

    def test_seed_outside_int64_exit_2(self, config_path, tmp_path, capsys):
        # The config text cannot carry such a seed, so config.txt could not either.
        with pytest.raises(SystemExit) as exit_info:
            run_cli("gen", "--config", str(config_path), "--seed", str(2**63))
        assert exit_info.value.code == 2
        assert "argument --seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_config_file_exit_2(self, tmp_path, capsys):
        assert run_cli("gen", "--config", str(tmp_path / "nope.txt")) == 2
        assert "error:" in capsys.readouterr().err

    def test_config_directory_exit_2(self, tmp_path, capsys):
        assert run_cli("run", "--config", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config")
        assert "Traceback" not in err

    def test_non_utf8_config_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"world.seed = 7\n# caf\xff\n")
        assert run_cli("run", "--config", str(bad)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "not UTF-8 text: byte 0xff at offset 20" in err
