#!/usr/bin/env python3
"""Record the reference output digests of every workload's seed pool.

    python3 perfbench/make_reference.py

Runs each workload's op once per seed of its pool, untimed, and writes
the SHA-256 of the checked output files to ``perfbench/reference.json``.
Run it only on code whose outputs are known to be right: the benchmark
fails every op whose outputs differ from this file.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import workloads


def main() -> int:
    workloads.pin_blas_threads()
    cli = workloads.import_xmodal()
    workdir = workloads.ROOT / ".perfbench" / f"reference-{os.getpid()}"
    reference = {}
    try:
        for workload in workloads.WORKLOADS.values():
            table = reference[workload.name] = {}
            for seed in range(workload.seed_pool):
                result = workloads.run_op(cli, workload, seed, workdir, None)
                if not result.ok:
                    print(f"{workload.name} seed {seed} failed: {result.error}", file=sys.stderr)
                    return 1
                table[str(seed)] = result.digests
                print(f"{workload.name} seed {seed}: {result.seconds:.3f} s", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
