"""Experiment pipeline: generate, train, evaluate, compare, write.

Stages recompute the world from its config instead of reading back the
written embedding files: generation is deterministic and float64, while
the files quantize to float32 and exist for interchange with other
tools. ``run`` writes a manifest carrying the config hash and each
artifact's size and SHA-256; text artifacts embed the hash directly.
Every artifact, binary or text, goes through
:func:`xmodal.storage.write_atomic` (a temp file and a rename).

The text-mapping baseline's map is fitted in one place,
:func:`baseline_report`, so ``run``, ``eval`` and ``baseline`` fit it
the same way and ``run`` writes the same bytes as ``train`` + ``eval``.

The summary is deliberately free of wallclock or environment data so
that reruns of the same config are byte-identical.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from .baselines import (
    BaselineKind,
    cascaded_zero_shot_baseline,
    random_projection_baseline,
    text_mapping_audio_embeddings,
    text_mapping_baseline,
)
from .embeddings import EmbeddingSet, Modality
from .evaluation import (
    EvalReport,
    chance_map_oracle,
    class_prototypes,
    knn_classify,
    map_from_ranked,
    map_retrieval,
    zero_shot_classify,
)
from .runconfig import RunConfig, adapter_config_for, canonical_config_text, config_hash
from .storage import save_params, write_atomic, write_embedding_set
from .trainer import Params, TrainReport, embed_audio, train_adapter
from .world import World, WorldView, generate_world, world_split

__all__ = [
    "PreparedWorld",
    "ExperimentResult",
    "teacher_prototype_set",
    "embedded_audio_set",
    "prepare_world",
    "baseline_report",
    "evaluate_trained",
    "render_summary",
    "write_world_artifacts",
    "run_experiment",
]

SUMMARY_METHOD_ORDER = ("random_projection", "text_mapping", "cascaded_zero_shot", "distilled")


def teacher_prototype_set(world: World) -> EmbeddingSet:
    """Variant-0 teacher text rows: one canonical prompt per species."""
    variant = world.config.variant_count
    rows = np.arange(world.n_species, dtype=np.int64) * variant
    return world.teacher_text.take(rows)


def embedded_audio_set(adapter_config, params: Params, audio: EmbeddingSet) -> EmbeddingSet:
    """Audio rows pushed through the adapter, labels preserved."""
    return EmbeddingSet(embed_audio(adapter_config, params, audio.matrix), audio.labels, Modality.AUDIO)


@dataclass(frozen=True)
class PreparedWorld:
    """World plus the derived artifacts every method shares."""

    world: World
    train_view: WorldView
    eval_view: WorldView
    teacher_prototypes: EmbeddingSet
    audio_prototypes: EmbeddingSet


def prepare_world(config: RunConfig) -> PreparedWorld:
    """Generate the world, split it, and build both prototype tables."""
    world = generate_world(config.world)
    train_view, eval_view = world_split(world, config.eval.holdout_fraction, seed=config.world.seed)
    return PreparedWorld(
        world=world,
        train_view=train_view,
        eval_view=eval_view,
        teacher_prototypes=teacher_prototype_set(world),
        audio_prototypes=class_prototypes(train_view.audio_features),
    )


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


def baseline_report(config: RunConfig, prepared: PreparedWorld, kind: BaselineKind) -> EvalReport:
    """Audio-to-image retrieval mAP of one baseline on the eval split.

    The text-mapping baseline fits its map here, on every call, from its
    own keyed streams; this is the only place the map is fitted.
    """
    eval_audio = prepared.eval_view.audio_features
    eval_images = prepared.eval_view.images
    if kind is BaselineKind.RANDOM_PROJECTION:
        projected = random_projection_baseline(eval_audio, config.world.d_teacher, config.world.seed)
        return map_retrieval(projected, eval_images, metric_name="audio_image_map.random_projection")
    if kind is BaselineKind.TEXT_MAPPING:
        text_mapping = text_mapping_baseline(
            prepared.world.student_text, prepared.teacher_prototypes, config.train
        )
        mapped = text_mapping_audio_embeddings(text_mapping, eval_audio, prepared.audio_prototypes)
        return map_retrieval(mapped, eval_images, metric_name="audio_image_map.text_mapping")
    ranked = cascaded_zero_shot_baseline(
        eval_audio, eval_images, prepared.audio_prototypes, prepared.teacher_prototypes
    )
    return map_from_ranked(
        ranked,
        eval_audio.labels,
        eval_images.labels,
        metric_name="audio_image_map.cascaded_zero_shot",
    )


def evaluate_trained(config: RunConfig, prepared: PreparedWorld, params: Params) -> Dict[str, EvalReport]:
    """All evaluation reports for a trained adapter plus the baselines."""
    adapter = adapter_config_for(config)
    eval_view = prepared.eval_view
    distilled_eval = embedded_audio_set(adapter, params, eval_view.audio_features)
    projected_eval = random_projection_baseline(
        eval_view.audio_features, config.world.d_teacher, config.world.seed
    )

    reports: Dict[str, EvalReport] = {}
    reports["audio_image_map.distilled"] = map_retrieval(
        distilled_eval, eval_view.images, metric_name="audio_image_map.distilled"
    )
    for kind in (BaselineKind.RANDOM_PROJECTION, BaselineKind.TEXT_MAPPING, BaselineKind.CASCADED_ZERO_SHOT):
        report = baseline_report(config, prepared, kind)
        reports[report.metric_name] = report
    # kNN is leave-one-out within the eval split (self-matches excluded),
    # so raw and distilled embeddings face the same neighbor pool.
    k = config.eval.knn_k
    reports["knn_accuracy.raw"] = knn_classify(eval_view.audio_features, eval_view.audio_features, k)
    reports["knn_accuracy.distilled"] = knn_classify(distilled_eval, distilled_eval, k)
    reports["zero_shot_accuracy.distilled"] = zero_shot_classify(
        distilled_eval, prepared.teacher_prototypes
    )
    reports["zero_shot_accuracy.random_projection"] = zero_shot_classify(
        projected_eval, prepared.teacher_prototypes
    )
    reports["text_audio_map.distilled"] = map_retrieval(
        prepared.teacher_prototypes,
        distilled_eval,
        k=config.eval.map_k,
        metric_name="text_audio_map.distilled",
    )
    return reports


def render_summary(config: RunConfig, reports: Dict[str, EvalReport], chance: float) -> str:
    """Human table plus machine key=value lines; deterministic bytes."""
    run_hash = config_hash(config)
    k = config.eval.knn_k
    lines: List[str] = []
    lines.append("audio-to-image retrieval mAP (eval split)")
    for method in SUMMARY_METHOD_ORDER:
        lines.append(f"  {method:<22} {reports[f'audio_image_map.{method}'].value:.6f}")
    lines.append(f"  {'chance (monte carlo)':<22} {chance:.6f}")
    lines.append("")
    lines.append("classification and text-to-audio retrieval (eval split)")
    lines.append(f"  {f'knn@{k} raw audio':<22} {reports['knn_accuracy.raw'].value:.6f}")
    lines.append(f"  {f'knn@{k} distilled':<22} {reports['knn_accuracy.distilled'].value:.6f}")
    lines.append(f"  {'zero-shot distilled':<22} {reports['zero_shot_accuracy.distilled'].value:.6f}")
    lines.append(
        f"  {'zero-shot random-proj':<22} {reports['zero_shot_accuracy.random_projection'].value:.6f}"
    )
    lines.append(
        f"  {f'text->audio map@{config.eval.map_k}':<22} {reports['text_audio_map.distilled'].value:.6f}"
    )
    lines.append("")
    lines.append(f"config_hash = {run_hash}")
    for name in sorted(reports):
        lines.append(f"summary.{name} = {reports[name].value:.6f}")
    lines.append(f"summary.chance_map = {chance:.6f}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ExperimentResult:
    """Everything a full run produces, before or without serialization."""

    config: RunConfig
    config_hash: str
    prepared: PreparedWorld
    train_report: TrainReport
    reports: Dict[str, EvalReport]
    chance: float
    summary: str


def write_world_artifacts(config: RunConfig, world: World, out_dir: Union[str, Path]) -> List[str]:
    """Write the four embedding files plus config text; returns names."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    run_hash = config_hash(config)
    named = {
        "teacher_text.xmeb": world.teacher_text,
        "student_text.xmeb": world.student_text,
        "images.xmeb": world.images,
        "audio_features.xmeb": world.audio_features,
    }
    for name, embedding_set in named.items():
        write_embedding_set(embedding_set, out / name)
    config_text = f"# config_hash = {run_hash}\n" + canonical_config_text(config)
    write_atomic(out / "config.txt", config_text.encode("utf-8"))
    return sorted(named)


def _write_manifest(out: Path, run_hash: str, names: List[str]) -> None:
    """``artifact = NAME BYTES SHA256`` per artifact, sorted by name."""
    lines = [f"config_hash = {run_hash}"]
    for name in sorted(names):
        data = (out / name).read_bytes()
        lines.append(f"artifact = {name} {len(data)} {hashlib.sha256(data).hexdigest()}")
    write_atomic(out / "manifest.txt", ("\n".join(lines) + "\n").encode("utf-8"))


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


def run_experiment(
    config: RunConfig,
    output_dir: Optional[Union[str, Path]] = None,
    write: bool = True,
) -> ExperimentResult:
    """The full pipeline: world, training, baselines, metrics, artifacts."""
    run_hash = config_hash(config)
    prepared = prepare_world(config)
    train_report = train_adapter(prepared.train_view, adapter_config_for(config), config.train)
    reports = evaluate_trained(config, prepared, train_report.final_params)
    chance = chance_map(config, prepared)
    summary = render_summary(config, reports, chance)

    if write:
        out = Path(output_dir) if output_dir is not None else Path(config.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        names = write_world_artifacts(config, prepared.world, out)
        save_params(train_report.final_params, out / "params.xmpb", run_hash)
        write_train_log(train_report, out / "train_log.txt", run_hash)
        write_reports(reports, chance, out / "reports.txt", run_hash)
        write_atomic(out / "summary.txt", summary.encode("utf-8"))
        _write_manifest(
            out,
            run_hash,
            names + ["config.txt", "params.xmpb", "train_log.txt", "reports.txt", "summary.txt"],
        )

    return ExperimentResult(
        config=config,
        config_hash=run_hash,
        prepared=prepared,
        train_report=train_report,
        reports=reports,
        chance=chance,
        summary=summary,
    )
