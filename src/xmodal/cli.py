"""Command-line interface.

Subcommands mirror the pipeline stages:

* ``gen``      write the world's embedding files
* ``train``    train the adapter, write params blob and loss log
* ``eval``     evaluate a trained params blob, write reports and summary
* ``baseline`` score one baseline (``--kind``)
* ``run``      full pipeline end to end

Every subcommand accepts ``--config PATH`` (line-oriented key=value
text; defaults apply when omitted) and ``--seed N`` (N >= 0), which
overrides both the world seed and the training seed. All output is
deterministic for a fixed config.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import List, Optional

from .baselines import BaselineKind
from .errors import ConfigFileError, XmodalError
from .pipeline import (
    baseline_report,
    chance_map,
    evaluate_trained,
    prepare_world,
    render_summary,
    run_experiment,
    write_reports,
    write_train_log,
    write_world_artifacts,
)
from .runconfig import RunConfig, adapter_config_for, config_hash, parse_config
from .storage import load_params, save_params, write_atomic
from .trainer import check_params, train_adapter

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="xmodal", description="text-bridged cross-modal distillation")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("gen", "generate the synthetic world and write its embedding files"),
        ("train", "train the audio adapter against the teacher text space"),
        ("eval", "evaluate a trained adapter and all baselines"),
        ("baseline", "score a single baseline"),
        ("run", "full pipeline: gen + train + eval + baselines"),
    ):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", type=Path, default=None, help="config file path")
        cmd.add_argument("--seed", type=int, default=None, help="override world and train seeds")
        if name == "baseline":
            cmd.add_argument(
                "--kind",
                required=True,
                choices=[kind.value for kind in BaselineKind],
                help="which baseline to score",
            )
    return parser


def _read_config_text(config_path: Path) -> str:
    try:
        return config_path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigFileError(f"cannot read config {config_path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise ConfigFileError(
            f"config {config_path} is not UTF-8 text: byte 0x{byte:02x} at offset {exc.start}"
        ) from exc


def _load_config(config_path: Optional[Path], seed: Optional[int]) -> RunConfig:
    config = parse_config(_read_config_text(config_path) if config_path is not None else "")
    if seed is not None:
        config = replace(
            config,
            world=replace(config.world, seed=seed),
            train=replace(config.train, seed=seed),
        )
    return config


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.config, args.seed)
        out = Path(config.output_dir)
        run_hash = config_hash(config)
        if args.command == "gen":
            prepared = prepare_world(config)
            names = write_world_artifacts(config, prepared.world, out)
            print(f"config_hash = {run_hash}")
            for name in names:
                print(f"wrote {out / name}")
        elif args.command == "train":
            prepared = prepare_world(config)
            report = train_adapter(prepared.train_view, adapter_config_for(config), config.train)
            out.mkdir(parents=True, exist_ok=True)
            save_params(report.final_params, out / "params.xmpb", run_hash)
            write_train_log(report, out / "train_log.txt", run_hash)
            print(f"config_hash = {run_hash}")
            print(f"steps = {report.steps}")
            if report.loss_curve:
                print(f"first_epoch_loss = {report.loss_curve[0]:.10f}")
                print(f"final_epoch_loss = {report.loss_curve[-1]:.10f}")
        elif args.command == "eval":
            params, stored_hash = load_params(out / "params.xmpb")
            if stored_hash != run_hash:
                raise XmodalError(
                    f"params blob at {out / 'params.xmpb'} was trained under config {stored_hash}, "
                    f"but the current config hashes to {run_hash}"
                )
            check_params(adapter_config_for(config), params)
            prepared = prepare_world(config)
            reports = evaluate_trained(config, prepared, params)
            chance = chance_map(config, prepared)
            summary = render_summary(config, reports, chance)
            write_reports(reports, chance, out / "reports.txt", run_hash)
            write_atomic(out / "summary.txt", summary.encode("utf-8"))
            print(summary, end="")
        elif args.command == "baseline":
            prepared = prepare_world(config)
            report = baseline_report(config, prepared, BaselineKind(args.kind))
            print(f"config_hash = {run_hash}")
            print(f"{report.metric_name} = {report.value:.6f}")
        else:
            result = run_experiment(config)
            print(result.summary, end="")
    except (XmodalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
