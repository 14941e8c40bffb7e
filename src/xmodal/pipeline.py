"""Experiment pipeline: one function per stage, one method table.

The stages :func:`write_world_artifacts` (``gen``), :func:`train_stage`
and :func:`eval_stage` each write their artifacts through
:func:`xmodal.storage.write_atomic`, then rewrite ``manifest.txt`` (the
config hash, then size and SHA-256 of each known artifact present); with
no directory they write nothing. :func:`run_experiment` is the three in
order. :func:`verify_manifest` re-hashes a directory against its
manifest. Stages recompute the world from its config, never from the
float32 embedding files, which exist for other tools.

:func:`train_stage` returns the trained state, a ``Trained`` dict of
blob file name -> named arrays, and writes each blob: the adapter
(``params.xmpb``) and the baselines' per-species tables
(``prototypes.xmpb``: the audio prototypes and the text map's output).
``_blob_shapes`` is the one list of what ``train`` writes and ``eval``
reads. ``run`` scores the state it returns; ``eval`` fits nothing and
scores what :func:`load_trained` reads back, each blob checked against
that list before any row is drawn.

A stage draws only the world rows it reads: :func:`prepare_world` takes
each command's sides and prompts from one table, ``_DRAWS``, and is the
only code that turns the split into rows.

``_SUMMARY_BLOCKS`` is the one list of reports, keyed ``<metric>.<method>``:
a method table builds each method's eval audio and a metric table scores it,
for ``evaluate_trained`` and for ``baseline_report`` (which builds its own
``Trained`` with no adapter blob).

The summary is deliberately free of wallclock or environment data so
that reruns of the same config are byte-identical.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .baselines import (
    cascaded_zero_shot_baseline,
    random_projection_baseline,
    text_mapping_baseline,
    text_mapping_rankings,
)
from .embeddings import EmbeddingSet, Modality
from .errors import FileFormatError, InvalidConfigError, ShapeMismatchError, XmodalError
from .evaluation import (
    _BLOCK_CELLS,
    EvalReport,
    RankedList,
    chance_map_oracle,
    class_prototypes,
    knn_classify,
    map_from_ranked,
    map_retrieval,
    zero_shot_classify,
)
from .runconfig import RunConfig, adapter_config_for, canonical_config_text, config_hash
from .storage import load_params, save_params, write_atomic, write_embedding_set
from .trainer import Params, TrainReport, adapter_forward, layer_shapes, train_adapter
from .world import SideRows, World, generate_world, split_rows

BASELINES = ("random_projection", "text_mapping", "cascaded_zero_shot")
SUMMARY_METHOD_ORDER = (*BASELINES, "distilled")

# Summary blocks: title -> {report key: label}, in print order. Labels
# are formatted with the eval config's fields; "chance_map" is the chance.
_SUMMARY_BLOCKS = {
    "audio-to-image retrieval mAP (eval split)": {
        **{f"audio_image_map.{method}": method for method in SUMMARY_METHOD_ORDER},
        "chance_map": "chance (monte carlo)",
    },
    "classification and text-to-audio retrieval (eval split)": {
        "knn_accuracy.raw": "knn@{knn_k} raw audio",
        "knn_accuracy.distilled": "knn@{knn_k} distilled",
        "zero_shot_accuracy.distilled": "zero-shot distilled",
        "zero_shot_accuracy.random_projection": "zero-shot random-proj",
        "text_audio_map.distilled": "text->audio map@{map_k}",
    },
}

# The metric table: report ``<metric>.<method>`` is one call on the method's eval audio.
_METRICS = {
    "audio_image_map": lambda config, prepared, audio: _audio_image_map(prepared, audio),
    # kNN is leave-one-out on the eval split, so every method faces the same neighbor pool.
    "knn_accuracy": lambda config, prepared, audio: knn_classify(audio, audio, config.eval.knn_k),
    "zero_shot_accuracy": lambda config, prepared, audio: zero_shot_classify(audio, prepared.teacher_prototypes),
    "text_audio_map": lambda config, prepared, audio: map_retrieval(
        prepared.teacher_prototypes, audio, k=config.eval.map_k
    ),
}

# World sets go to NAME.xmeb; the manifest lists every artifact present.
_WORLD_SETS = ("audio_features", "images", "student_text", "teacher_text")
_STAGE_FILES = ("config.txt", "params.xmpb", "prototypes.xmpb", "train_log.txt", "reports.txt", "summary.txt")
_ARTIFACTS = sorted([f"{name}.xmeb" for name in _WORLD_SETS] + list(_STAGE_FILES))


def teacher_prototype_set(world: World) -> EmbeddingSet:
    """Variant-0 teacher text rows: one canonical prompt per species."""
    variant = world.config.variant_count
    rows = np.arange(world.n_species, dtype=np.int64) * variant
    return world.teacher_text.take(rows)


def embedded_audio_set(adapter_config, params: Params, audio: EmbeddingSet) -> EmbeddingSet:
    """Audio rows pushed through the adapter, labels preserved.

    The rows go through in blocks written into one output, so no
    activation grows with the number of clips. ``height`` is the
    evaluation block budget over the adapter's widest layer (256 rows at
    ``d_hidden = 512``, a 1 MB hidden block). ``n`` rows make
    ``n // height`` blocks of near-equal size, so no block is shorter
    than ``height`` and a set of fewer than two blocks' rows goes
    through in one call. A short tail block would change the bits: on
    the benchmark's ``eval_wide`` adapter, under OpenBLAS's SkylakeX
    kernel, every block of 51 rows or more held the bits of the same rows
    of the whole forward, and every block of 50 or fewer (OpenBLAS's
    small-matrix path) did not. Under its Haswell kernel, 28 of 1920
    blocked rows differ from the whole forward.
    """
    n = audio.n_items
    height = max(1, _BLOCK_CELLS // max(fan_out for _, _, fan_out, _ in adapter_config.layers))
    blocks = max(1, n // height)
    edges = [n * block // blocks for block in range(blocks + 1)]
    out = np.empty((n, adapter_config.d_teacher))
    for start, stop in zip(edges, edges[1:]):
        out[start:stop] = adapter_forward(adapter_config, params, audio.matrix[start:stop])[0]
    return EmbeddingSet(out, audio.labels, Modality.AUDIO)


@dataclass(frozen=True)
class PreparedWorld:
    """World plus its split sides and the canonical prompts.

    ``world`` holds the student text, the teacher text rows and the audio
    and image rows that the command draws (``_DRAWS``); a side holds no
    row of a channel that the command does not draw for it.
    """

    world: World
    train_view: World
    eval_view: World
    teacher_prototypes: EmbeddingSet


# The trained state: blob file name -> the named arrays train writes to it.
Trained = Dict[str, Params]


def _blob_shapes(config: RunConfig) -> Dict[str, Dict[str, Tuple[int, ...]]]:
    """The one list of what ``train`` writes and ``eval`` reads: blob file
    name -> array name -> shape. Each table holds a row per species, in
    species order."""
    species = config.world.n_species
    return {
        "params.xmpb": layer_shapes(adapter_config_for(config).layers),
        "prototypes.xmpb": {
            "audio_prototypes": (species, config.world.d_student_in),
            "mapped_text": (species, config.world.d_teacher),
        },
    }


# The split sides, in the order split_rows returns them.
_SIDES = ("train", "eval")

# What each command draws: (audio sides, image sides, every prompt
# variant or only the canonical variant 0). train reads the train clips
# and every prompt; eval the eval clips and images and the canonical
# prompts, because its tables come from train; baseline every clip, for
# the audio prototypes, with the eval images and the canonical prompts;
# gen and run every row, because they write every .xmeb.
_DRAWS = {
    "gen": (_SIDES, _SIDES, True),
    "train": (("train",), (), True),
    "eval": (("eval",), ("eval",), False),
    "baseline": (_SIDES, ("eval",), False),
    "run": (_SIDES, _SIDES, True),
}


def prepare_world(config: RunConfig, command: str) -> PreparedWorld:
    """Split and generate the rows that ``command`` draws (``_DRAWS``):
    the audio rows of its audio sides, the image rows of its image sides
    and every teacher prompt variant or only the canonical ones. A side
    not among a channel's sides holds no row of that channel.

    The split permutations are drawn once, before any row values. The
    world holds the sorted union of the drawn sides' audio rows and of
    their image rows, so a side's row ``r`` sits at
    ``searchsorted(rows, r)`` of its channel's union. Rows are drawn per
    row key, so a row drawn alone is bit-equal to the same row of the
    whole world.
    """
    audio_sides, image_sides, every_prompt = _DRAWS[command]
    sides = [
        SideRows(
            rows.audio if name in audio_sides else rows.audio[:0],
            rows.images if name in image_sides else rows.images[:0],
        )
        for name, rows in zip(_SIDES, split_rows(config.world, config.eval.holdout_fraction, config.world.seed))
    ]
    audio_rows = np.sort(np.concatenate([rows.audio for rows in sides]))
    image_rows = np.sort(np.concatenate([rows.images for rows in sides]))
    canonical = np.arange(config.world.n_species, dtype=np.int64) * config.world.variant_count
    world = generate_world(
        config.world,
        image_rows=image_rows,
        audio_rows=audio_rows,
        teacher_rows=None if every_prompt else canonical,
    )
    train_view, eval_view = (
        replace(
            world,
            audio_features=world.audio_features.take(np.searchsorted(audio_rows, rows.audio)),
            images=world.images.take(np.searchsorted(image_rows, rows.images)),
        )
        for rows in sides
    )
    teacher_prototypes = teacher_prototype_set(world) if every_prompt else world.teacher_text
    return PreparedWorld(world, train_view, eval_view, teacher_prototypes)


def _fit_tables(config: RunConfig, prepared: PreparedWorld, fit_text_map: bool = True) -> Params:
    """The per-species tables built from ``prepared``: the class means of
    the train side's audio, and, if ``fit_text_map``, the text map's
    output from the one fit of the text map."""
    tables = {"audio_prototypes": class_prototypes(prepared.train_view.audio_features).matrix}
    if fit_text_map:
        _, mapped = text_mapping_baseline(prepared.world.student_text, prepared.teacher_prototypes, config.train)
        tables["mapped_text"] = mapped.matrix
    return tables


def _images_per_species_eval(prepared: PreparedWorld) -> int:
    counts = np.bincount(prepared.eval_view.images.labels, minlength=prepared.world.n_species)
    return int(counts[0])


def chance_map(config: RunConfig, prepared: PreparedWorld) -> float:
    """Monte Carlo chance level of the audio-to-image retrieval task."""
    return chance_map_oracle(
        n_per_class=_images_per_species_eval(prepared),
        n_classes=prepared.world.n_species,
        trials=config.eval.chance_trials,
        seed=config.world.seed,
    )


def _method_audio(
    config: RunConfig, prepared: PreparedWorld, trained: Trained, method: str
) -> Union[EmbeddingSet, RankedList]:
    """The method table: one method's eval audio, by method name.

    The learned maps (``distilled``, ``random_projection``) give an
    embedding row per clip. The classify-then-look-up baselines
    (``text_mapping``, ``cascaded_zero_shot``) give a ``RankedList``:
    each clip gets the gallery scores of its predicted species. Nothing
    here is fitted: ``distilled`` reads the adapter of ``trained`` and
    the two baselines its per-species tables. ``raw`` is the eval clips.
    """
    eval_audio = prepared.eval_view.audio_features
    images = prepared.eval_view.images
    if method == "raw":
        return eval_audio
    if method == "distilled":
        return embedded_audio_set(adapter_config_for(config), trained["params.xmpb"], eval_audio)
    if method == "random_projection":
        return random_projection_baseline(eval_audio, config.world.d_teacher, config.world.seed)
    if method in ("text_mapping", "cascaded_zero_shot"):
        tables = trained["prototypes.xmpb"]
        species = np.arange(config.world.n_species)
        prototypes = EmbeddingSet(tables["audio_prototypes"], species, Modality.AUDIO)
        if method == "text_mapping":
            mapped = EmbeddingSet(tables["mapped_text"], species, Modality.STUDENT_TEXT)
            return text_mapping_rankings(mapped, eval_audio, prototypes, images)
        return cascaded_zero_shot_baseline(eval_audio, images, prototypes, prepared.teacher_prototypes)
    raise InvalidConfigError(f"unknown method {method!r}; the methods are {', '.join(('raw', *SUMMARY_METHOD_ORDER))}")


def _audio_image_map(prepared: PreparedWorld, audio: Union[EmbeddingSet, RankedList]) -> EvalReport:
    """Audio-to-image retrieval mAP of one method's rows or score rows."""
    images = prepared.eval_view.images
    if isinstance(audio, EmbeddingSet):
        return map_retrieval(audio, images)
    return map_from_ranked(audio, prepared.eval_view.audio_features.labels, images.labels)


def baseline_report(config: RunConfig, prepared: PreparedWorld, method: str) -> Tuple[str, EvalReport]:
    """Report key and audio-to-image retrieval mAP of one baseline, by name,
    on the eval split; the per-species tables are built from ``prepared``,
    and the text map is fitted only for ``text_mapping``."""
    if method not in BASELINES:
        raise InvalidConfigError(f"unknown baseline {method!r}; the baselines are {', '.join(BASELINES)}")
    trained = {"prototypes.xmpb": _fit_tables(config, prepared, fit_text_map=method == "text_mapping")}
    metric = "audio_image_map"
    return f"{metric}.{method}", _METRICS[metric](config, prepared, _method_audio(config, prepared, trained, method))


def evaluate_trained(config: RunConfig, prepared: PreparedWorld, trained: Trained) -> Dict[str, EvalReport]:
    """Every report of ``_SUMMARY_BLOCKS`` but the chance. Each method's
    eval audio is built once, in table order, scored by every metric filed
    under it, and freed before the next method builds its own."""
    keys = [key.split(".") for labels in _SUMMARY_BLOCKS.values() for key in labels if key != "chance_map"]
    reports: Dict[str, EvalReport] = {}
    for method in dict.fromkeys(method for _, method in keys):
        audio = _method_audio(config, prepared, trained, method)
        for metric, of in keys:
            if of == method:
                reports[f"{metric}.{method}"] = _METRICS[metric](config, prepared, audio)
        del audio
    return reports


def render_summary(config: RunConfig, reports: Dict[str, EvalReport], chance: float) -> str:
    """Human table plus machine key=value lines; deterministic bytes."""
    values = {**{name: report.value for name, report in reports.items()}, "chance_map": chance}
    lines: List[str] = []
    for title, labels in _SUMMARY_BLOCKS.items():
        lines.append(title)
        for key, label in labels.items():
            lines.append(f"  {label.format(**vars(config.eval)):<22} {values[key]:.6f}")
        lines.append("")
    lines.append(f"config_hash = {config_hash(config)}")
    lines += [f"summary.{name} = {reports[name].value:.6f}" for name in sorted(reports)]
    lines.append(f"summary.chance_map = {chance:.6f}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ExperimentResult:
    """Everything a full run produces, before or without serialization."""

    config: RunConfig
    prepared: PreparedWorld
    train_report: TrainReport
    reports: Dict[str, EvalReport]
    chance: float
    summary: str


def _write_manifest(out: Path, run_hash: str) -> None:
    """``artifact = NAME BYTES SHA256`` per artifact present, sorted by name."""
    lines = [f"config_hash = {run_hash}"]
    for name in _ARTIFACTS:
        if (out / name).is_file():
            data = (out / name).read_bytes()
            lines.append(f"artifact = {name} {len(data)} {hashlib.sha256(data).hexdigest()}")
    write_atomic(out / "manifest.txt", ("\n".join(lines) + "\n").encode("utf-8"))


_HASH_LINE = re.compile(r"config_hash = [0-9a-f]{16}")
_ARTIFACT_LINE = re.compile(r"artifact = (\S+) ([0-9]+) ([0-9a-f]{64})")


def verify_manifest(out: Union[str, Path]) -> Tuple[str, int]:
    """Re-hash ``out`` against its ``manifest.txt``; (config hash, artifact count).

    The first line must be the config hash line, and each later line an
    artifact line naming a known artifact, in the order
    :func:`_write_manifest` writes them. Raises :class:`XmodalError`
    naming the first listed file that is missing or whose size or
    SHA-256 differs, or a known artifact present but not listed.
    """
    out = Path(out)
    manifest = out / "manifest.txt"
    try:
        lines = manifest.read_bytes().decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{manifest} is not UTF-8 text") from exc
    if not lines or not _HASH_LINE.fullmatch(lines[0]):
        raise FileFormatError(f"{manifest} line 1 is not a 'config_hash = <16 hex digits>' line")
    listed: List[str] = []
    for number, line in enumerate(lines[1:], start=2):
        match = _ARTIFACT_LINE.fullmatch(line)
        if match is None or match[1] not in _ARTIFACTS or (listed and match[1] <= listed[-1]):
            raise FileFormatError(
                f"{manifest} line {number} is not an artifact line of a known artifact, in name order"
            )
        name, size, digest = match.groups()
        path = out / name
        if not path.is_file():
            raise XmodalError(f"{path} is listed in {manifest} but missing")
        data = path.read_bytes()
        found = (len(data), hashlib.sha256(data).hexdigest())
        if found != (int(size), digest):
            raise XmodalError(
                f"{path} does not match {manifest}: it has {found[0]} bytes with SHA-256 {found[1]}, "
                f"the manifest lists {size} bytes with SHA-256 {digest}"
            )
        listed.append(name)
    for name in _ARTIFACTS:
        if name not in listed and (out / name).is_file():
            raise XmodalError(f"{out / name} is present but {manifest} does not list it")
    return lines[0].split(" = ")[1], len(listed)


def write_world_artifacts(config: RunConfig, world: World, out_dir: Union[str, Path]) -> List[str]:
    """The gen stage: world embedding files, config text, manifest; returns the file names."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    run_hash = config_hash(config)
    for name in _WORLD_SETS:
        write_embedding_set(getattr(world, name), out / f"{name}.xmeb")
    config_text = f"# config_hash = {run_hash}\n" + canonical_config_text(config)
    write_atomic(out / "config.txt", config_text.encode("utf-8"))
    _write_manifest(out, run_hash)
    return [f"{name}.xmeb" for name in _WORLD_SETS]


def write_train_log(report: TrainReport, path: Union[str, Path], run_hash: str) -> None:
    """Line-oriented training log; no wallclock, so reruns are identical."""
    lines = [f"config_hash = {run_hash}", f"steps = {report.steps}"]
    for epoch, loss in enumerate(report.loss_curve):
        lines.append(f"epoch {epoch} mean_loss = {loss:.10f}")
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


def write_reports(reports: Dict[str, EvalReport], chance: float, path: Union[str, Path], run_hash: str) -> None:
    """Key=value metric records, one per line."""
    lines = [f"config_hash = {run_hash}"]
    for name in sorted(reports):
        report = reports[name]
        lines.append(f"{name}.value = {report.value:.6f}")
        if report.k is not None:
            lines.append(f"{name}.k = {report.k}")
        for meta_key in sorted(report.metadata):
            lines.append(f"{name}.{meta_key} = {report.metadata[meta_key]}")
    lines.append(f"chance_map.value = {chance:.6f}")
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


def train_stage(config: RunConfig, prepared: PreparedWorld, out: Optional[Path]) -> Tuple[TrainReport, Trained]:
    """The train stage: fit the adapter and build the per-species tables;
    write params, tables, log and manifest to ``out``."""
    report = train_adapter(prepared.train_view, adapter_config_for(config), config.train)
    trained = {"params.xmpb": report.final_params, "prototypes.xmpb": _fit_tables(config, prepared)}
    if out is not None:
        run_hash = config_hash(config)
        out.mkdir(parents=True, exist_ok=True)
        for blob, arrays in trained.items():
            save_params(arrays, out / blob, run_hash)
        write_train_log(report, out / "train_log.txt", run_hash)
        _write_manifest(out, run_hash)
    return report, trained


def load_trained(config: RunConfig, out: Path) -> Trained:
    """The blobs of ``_blob_shapes`` that :func:`train_stage` wrote to
    ``out``; refuses a blob that is missing, was written under another
    config hash or does not hold exactly the configured arrays and shapes."""
    run_hash = config_hash(config)
    trained: Trained = {}
    for blob, shapes in _blob_shapes(config).items():
        path = out / blob
        try:
            arrays, stored_hash = load_params(path)
        except FileNotFoundError as exc:
            raise XmodalError(f"{path} is missing; run `xmodal train` with this config first") from exc
        if stored_hash != run_hash:
            raise XmodalError(
                f"{path.stem} blob at {path} was trained under config {stored_hash}, "
                f"but the current config hashes to {run_hash}"
            )
        got = {name: array.shape for name, array in arrays.items()}
        if got != shapes:
            raise ShapeMismatchError(
                f"{path.stem} blob at {path} holds {sorted(got.items())}, not {sorted(shapes.items())}"
            )
        trained[blob] = arrays
    return trained


def eval_stage(
    config: RunConfig, prepared: PreparedWorld, trained: Trained, out: Optional[Path]
) -> Tuple[Dict[str, EvalReport], float, str]:
    """The eval stage: (reports, chance, summary); write them and the manifest to ``out``."""
    reports = evaluate_trained(config, prepared, trained)
    chance = chance_map(config, prepared)
    summary = render_summary(config, reports, chance)
    if out is not None:
        run_hash = config_hash(config)
        out.mkdir(parents=True, exist_ok=True)
        write_reports(reports, chance, out / "reports.txt", run_hash)
        write_atomic(out / "summary.txt", summary.encode("utf-8"))
        _write_manifest(out, run_hash)
    return reports, chance, summary


def run_experiment(config: RunConfig, write: bool = True) -> ExperimentResult:
    """The three stages into ``config.output_dir``; ``write=False`` writes nothing."""
    out = Path(config.output_dir) if write else None
    prepared = prepare_world(config, "run")
    if out is not None:
        write_world_artifacts(config, prepared.world, out)
    train_report, trained = train_stage(config, prepared, out)
    reports, chance, summary = eval_stage(config, prepared, trained, out)
    return ExperimentResult(config, prepared, train_report, reports, chance, summary)
