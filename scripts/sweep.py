#!/usr/bin/env python3
"""Sweep: rerun the experiment over seeds and config settings, one row per run.

Each run's config is the ``--config`` file (or the defaults) with the
swept keys given to ``parse_config`` as settings, which replace the
file's values. ``--set KEY=V1,V2,...`` sweeps the cross product of its
values in command-line order; a comma-valued key
(``train.prompt_mixture``) cannot be swept. ``--seeds A-B`` sets
``runconfig.SEED_KEYS`` per run, as the CLI's ``--seed`` does.
A row is the setting, the world seed and ``COLUMNS``; each setting's
rows end with their mean and sample standard deviation. A config error
prints ``error: ...`` and exits 2.

Usage:
    python3 scripts/sweep.py --seeds 0-4
    python3 scripts/sweep.py --set adapter.mode=linear_head_only,mlp_encoder_plus_head --set train.epochs=5,15,30
"""

import argparse
import itertools
import math
import re
import statistics
import sys
from pathlib import Path

from xmodal.errors import XmodalError
from xmodal.pipeline import run_experiment
from xmodal.runconfig import SEED_KEYS, parse_config, read_config_text

COLUMNS = (  # (key, header): report keys, then two values of the TrainReport
    ("audio_image_map.distilled", "map.distilled"), ("audio_image_map.text_mapping", "map.text_map"),
    ("audio_image_map.cascaded_zero_shot", "map.cascaded"), ("audio_image_map.random_projection", "map.random"),
    ("zero_shot_accuracy.distilled", "zs.distilled"), ("knn_accuracy.distilled", "knn.distilled"),
    ("train.final_loss", "final_loss"), ("train.steps", "steps"),  # the final loss is NaN when no epoch ran
)


def plan(args):
    """The swept keys, and each setting with its configs (one per seed), in print order."""
    swept = [item.partition("=") for item in args.set]
    keys = [key.strip() for key, _, _ in swept]
    if not all(sep for _, sep, _ in swept) or len(set(keys)) < len(keys):
        raise ValueError("each --set is KEY=V1,V2,... for a key that no other --set sets")
    bounds = re.fullmatch(r"(\d+)-(\d+)", args.seeds or "")
    if args.seeds is not None and (not bounds or int(bounds[1]) > int(bounds[2]) or set(keys) & set(SEED_KEYS)):
        raise ValueError(f"--seeds takes A-B with A <= B, and no --set of {' or '.join(SEED_KEYS)}")
    seeds = [dict.fromkeys(SEED_KEYS, n) for n in range(int(bounds[1]), int(bounds[2]) + 1)] if bounds else [{}]
    base = read_config_text(args.config) if args.config else ""
    settings = itertools.product(*([v.strip() for v in values.split(",")] for _, _, values in swept))
    return keys, [(s, [parse_config(base, {**dict(zip(keys, s)), **seed}) for seed in seeds]) for s in settings]


def measure(config):
    """One run's ``COLUMNS`` values."""
    result = run_experiment(config, write=False)
    curve = result.train_report.loss_curve
    train = {"train.final_loss": curve[-1] if curve else math.nan, "train.steps": result.train_report.steps}
    return [train[key] if key in train else result.reports[key].value for key, _ in COLUMNS]


def spread(column):
    """``statistics.stdev``, 0 for one run; it fails on NaN, so a column holding NaN reads NaN."""
    return math.nan if any(map(math.isnan, column)) else statistics.stdev(column) if len(column) > 1 else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", type=Path, help="base config file (default: the defaults)")
    parser.add_argument("--seeds", metavar="A-B", help="run each setting on seeds A to B")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=V1,V2,...", help="sweep KEY over values")
    args = parser.parse_args(argv)
    try:
        keys, settings = plan(args)
        widths = [max(len(key), *(len(setting[i]) for setting, _ in settings)) for i, key in enumerate(keys)]
        def line(setting, cells):
            return "  ".join([f"{v:<{w}}" for v, w in zip(setting, widths)] + [f"{c:>14}" for c in cells])
        print(line(keys, ["seed"] + [header for _, header in COLUMNS]))
        for setting, configs in settings:
            table = []
            for config in configs:
                table.append(measure(config))
                print(line(setting, [config.world.seed] + [f"{v:.4f}" for v in table[-1]]))
            print(line(setting, ["mean"] + [f"{statistics.mean(c):.4f}" for c in zip(*table)]))
            print(line(setting, ["std"] + [f"{spread(c):.4f}" for c in zip(*table)]))
    except (XmodalError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
