#!/usr/bin/env python3
"""Alternate the benchmark's ops between two source trees in one process.

Each tree's ``src/xmodal`` is imported under its own package alias
(``xmodal_old`` and ``xmodal_new``); the package's relative imports keep
each tree's modules apart. Every round runs one op of WORKLOAD on each
tree, at the same seed, through ``perfbench/workloads.run_op``, as the
benchmark runs it, and checks its output digests against
``perfbench/reference.json``. Rounds alternate which tree goes first,
and one untimed op per tree runs before the first round. That warm-up
op's command (not its fixture) runs under ``tracemalloc``, through the
``before``/``after`` hooks of ``run_op``. The new tree's warm-up goes
first, so its peak also holds the process's one-time lazy imports (NumPy
imports ``numpy.ma`` on the first ``np.unique``, about 1 MB).

Both sides share one process, one host state and one time window, so
their gap is not the swing between separate benchmark runs. The op's
wall time is compared, and the warm-up command's traced peak is printed;
set-up and peak RSS need separate processes.

Usage:
    python3 scripts/interleave_ab.py OLD_TREE NEW_TREE WORKLOAD --rounds N [--seed S]

Prints each side's median op seconds and quartiles, the median of the
per-round ratio new/old, the rounds where the new tree was faster and
each side's traced peak of its warm-up command (MB allocated above what
was live when it started), then one JSON line with every round's
seconds. Exits 1 if any op fails.
"""

import argparse
import importlib
import importlib.util
import json
import statistics
import sys
import tempfile
import tracemalloc
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

_spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = workloads
_spec.loader.exec_module(workloads)

SIDES = ("old", "new")


def load_cli(tree: Path, alias: str):
    """``xmodal.cli`` of ``tree/src``, imported as ``alias.cli``."""
    package = tree.resolve() / "src" / "xmodal"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"interleave_ab: no xmodal sources under {package.parent}")
    spec = importlib.util.spec_from_file_location(
        alias, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{alias}.cli")


def tracing(peaks, side):
    """``before`` and ``after`` hooks of ``run_op`` that store the traced
    peak of the command they enclose, in MB, as ``peaks[side]``."""

    def after():
        peaks[side] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()

    return tracemalloc.start, after


def quartiles(values):
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"  (q1 {q1:.6f}, q3 {q3:.6f})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_tree", type=Path, metavar="OLD_TREE")
    parser.add_argument("new_tree", type=Path, metavar="NEW_TREE")
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS), metavar="WORKLOAD")
    parser.add_argument("--rounds", type=int, default=10, help="timed ops per tree (default 10)")
    parser.add_argument("--seed", type=int, default=7, help="workload seed of the first round (default 7)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    workload = workloads.WORKLOADS[args.workload]
    reference = workloads.load_reference()[workload.name]
    clis = {side: load_cli(tree, f"xmodal_{side}") for side, tree in zip(SIDES, (args.old_tree, args.new_tree))}
    seconds = {side: [] for side in SIDES}
    peaks = {}
    failed = 0
    with tempfile.TemporaryDirectory(prefix="interleave-ab-") as workdir:
        for index in range(-1, args.rounds):
            seed = workload.op_seed(args.seed, max(index, 0))
            order = SIDES if index % 2 == 0 else SIDES[::-1]
            expected = reference.get(str(seed))
            # The untimed warm-up op runs its command under tracemalloc.
            hooks = {side: tracing(peaks, side) if index < 0 else () for side in SIDES}
            results = {
                side: workloads.run_op(clis[side], workload, seed, Path(workdir), expected, *hooks[side])
                for side in order
            }
            for side, result in results.items():
                if not result.ok:
                    failed += 1
                    print(f"FAILED {side} op: {result.error}", flush=True)
            if index >= 0 and all(result.ok for result in results.values()):
                for side in SIDES:
                    seconds[side].append(results[side].seconds)

    rounds = len(seconds["old"])
    print(f"{workload.name} seed {args.seed}: {rounds} rounds timed, {failed} ops failed")
    if rounds:
        for side, tree in zip(SIDES, (args.old_tree, args.new_tree)):
            print(f"{side}  median {statistics.median(seconds[side]):.6f} s{quartiles(seconds[side])}  {tree}")
        ratios = [new / old for old, new in zip(seconds["old"], seconds["new"])]
        wins = sum(new < old for old, new in zip(seconds["old"], seconds["new"]))
        print(f"median paired ratio new/old = {statistics.median(ratios):.4f}")
        print(f"new faster in {wins} of {rounds} rounds")
    for side in SIDES:
        if side in peaks:
            print(f"{side}  warm-up command traced peak {peaks[side]:.3f} MB")
    print(json.dumps({"workload": workload.name, "seed": args.seed, "failed": failed, "seconds": seconds}))
    return 1 if failed else 0


if __name__ == "__main__":
    workloads.pin_blas_threads()
    sys.exit(main())
