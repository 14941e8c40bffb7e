#!/usr/bin/env python3
"""Replay the benchmark's reference ops and check their output digests.

Each op recorded in ``perfbench/reference.json`` is run in-process
through ``perfbench/workloads.run_op``, as the benchmark runs it, and
its output files are compared with the recorded SHA-256 digests. A
change that claims to be bit for bit must pass every op; this checks it
without touching ``perfbench/``.

Usage:
    python3 scripts/verify_reference.py                 # all ops
    python3 scripts/verify_reference.py eval_wide:3 train_long

Each argument is ``WORKLOAD`` (every seed of it) or ``WORKLOAD:SEED``.
Prints each op that fails; exits 1 if any does, 0 otherwise.
"""

import argparse
import importlib.util
import sys
import tempfile
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

_spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = workloads
_spec.loader.exec_module(workloads)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ops", nargs="*", metavar="WORKLOAD[:SEED]", help="ops to replay (default: all)")
    args = parser.parse_args(argv)

    reference = workloads.load_reference()
    ops = []
    for target in args.ops or list(reference):
        name, _, seed = target.partition(":")
        if name not in reference:
            parser.error(f"unknown workload {name!r}; the reference holds {', '.join(reference)}")
        if seed and seed not in reference[name]:
            parser.error(f"{name} has no reference op at seed {seed}")
        ops += [(name, s) for s in ([seed] if seed else sorted(reference[name], key=int))]

    cli = workloads.import_xmodal()
    failed = 0
    with tempfile.TemporaryDirectory(prefix="verify-reference-") as workdir:
        for name, seed in ops:
            result = workloads.run_op(
                cli, workloads.WORKLOADS[name], int(seed), Path(workdir), reference[name][seed]
            )
            if not result.ok:
                failed += 1
                print(f"{name} seed {seed}: {result.error.removeprefix(f'seed {seed}: ')}", flush=True)
    print(f"{len(ops) - failed} of {len(ops)} reference ops match")
    return 1 if failed else 0


if __name__ == "__main__":
    workloads.pin_blas_threads()
    sys.exit(main())
