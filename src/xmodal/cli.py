"""Command-line interface.

Subcommands call the pipeline's stage functions, which write every
artifact and rewrite ``manifest.txt``; this module only prints:

* ``gen``      write the world's embedding files and config text
* ``train``    fit the adapter and the text map, write params, tables and loss log
* ``eval``     check and evaluate what ``train`` wrote, write reports and summary
* ``baseline`` score one baseline (``--kind``); writes nothing
* ``run``      ``gen`` + ``train`` + ``eval``, writing the same bytes
* ``verify``   re-hash a run directory against its ``manifest.txt``

Each subcommand draws only the world rows it reads: the table of them is
``pipeline._DRAWS``, which :func:`xmodal.pipeline.prepare_world` reads.
What ``train`` writes and ``eval`` reads back is one table too,
``pipeline._blob_shapes``: each blob file's array names and shapes.

Every subcommand but ``verify`` accepts ``--config PATH`` (line-oriented
key=value text; defaults apply when omitted) and ``--seed N``
(0 <= N < 2**63), a setting of both ``runconfig.SEED_KEYS`` that
``parse_config`` applies over the file, so its errors name the key. All
output is deterministic for a fixed config.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .errors import XmodalError
from .pipeline import (
    BASELINES,
    baseline_report,
    eval_stage,
    load_trained,
    prepare_world,
    run_experiment,
    train_stage,
    verify_manifest,
    write_world_artifacts,
)
from .runconfig import SEED_KEYS, _int64, config_hash, parse_config, read_config_text


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
        cmd.add_argument("--seed", type=_int64, default=None, help="override world and train seeds")
        if name == "baseline":
            cmd.add_argument("--kind", required=True, choices=BASELINES, help="which baseline to score")
    verify = sub.add_parser("verify", help="re-hash a run directory against its manifest")
    verify.add_argument("dir", type=Path, help="run directory holding manifest.txt")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            verified_hash, n_artifacts = verify_manifest(args.dir)
            print(f"config_hash = {verified_hash}")
            print(f"{n_artifacts} artifacts match {args.dir / 'manifest.txt'}")
            return 0
        text = read_config_text(args.config) if args.config is not None else ""
        config = parse_config(text, dict.fromkeys(SEED_KEYS, args.seed) if args.seed is not None else None)
        if args.command == "run":
            print(run_experiment(config).summary, end="")
            return 0
        out = Path(config.output_dir)
        run_hash = config_hash(config)
        # eval checks what train wrote before it draws any row.
        trained = load_trained(config, out) if args.command == "eval" else None
        prepared = prepare_world(config, args.command)
        if args.command == "gen":
            names = write_world_artifacts(config, prepared.world, out)
            print(f"config_hash = {run_hash}")
            for name in names:
                print(f"wrote {out / name}")
        elif args.command == "train":
            report, _ = train_stage(config, prepared, out)
            print(f"config_hash = {run_hash}")
            print(f"steps = {report.steps}")
            if report.loss_curve:
                print(f"first_epoch_loss = {report.loss_curve[0]:.10f}")
                print(f"final_epoch_loss = {report.loss_curve[-1]:.10f}")
        elif args.command == "eval":
            _, _, summary = eval_stage(config, prepared, trained, out)
            print(summary, end="")
        else:
            key, report = baseline_report(config, prepared, args.kind)
            print(f"config_hash = {run_hash}")
            print(f"{key} = {report.value:.6f}")
    except (XmodalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
