#!/usr/bin/env python3
"""Benchmark of the xmodal CLI: timed ops, output checks, traced layers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload default_run --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs a separate traced run for its per-layer metrics.
``--workload all`` runs every workload, each in a fresh process. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
non-zero when any op failed its output check.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Dict, List, Optional

import workloads
from workloads import ROOT, WORKLOADS, Workload, run_op

BENCHMARK_FILE = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".perfbench"
MIN_OPS = 3
# Besides this process, set-up (import + first op) is repeated in this
# many fresh processes, and setup_s is the median of all of them.
SETUP_PROBES = 2
# No op starts after this many seconds of the run, so that even the
# slowest workload exits well within three minutes.
LAST_START_S = 100.0


def blas_info() -> Dict[str, object]:
    """BLAS vendor, version, core type and the thread count in force."""
    import ctypes

    import numpy

    info: Dict[str, object] = {"blas": "unknown", "blas_threads": None, "blas_core": None}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except Exception:
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libraries = sorted({line.split()[-1] for line in maps if "blas" in line and ".so" in line})
    except OSError:
        libraries = []
    for path in libraries:
        library = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(library, f"{prefix}_get_num_threads{suffix}", None)
                if threads is not None and info["blas_threads"] is None:
                    info["blas_threads"] = int(threads())
                    core = getattr(library, f"{prefix}_get_corename{suffix}")
                    core.restype = ctypes.c_char_p
                    info["blas_core"] = core().decode()
    if info["blas_threads"] is None:
        info["blas_threads"] = int(os.environ["OPENBLAS_NUM_THREADS"])
    return info


def environment() -> Dict[str, object]:
    import platform

    import numpy

    src = sorted((ROOT / "src" / "xmodal").glob("*.py"))
    digest = hashlib.sha256()
    for path in src:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        commit = done.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def quartiles(values: List[float]) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"; q1 {q1:.6g}, q3 {q3:.6g}"


class Run:
    """One run of one workload: its ops, failures and timings."""

    def __init__(self, cli, workload: Workload, seed: int, workdir: Path) -> None:
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.reference = workloads.load_reference()[workload.name]
        self.next_op = 0
        self.attempted = 0
        self.failed = 0

    def op(self, before=None, after=None) -> Optional[float]:
        """Run the next op; its seconds, or None when it failed."""
        seed = self.workload.op_seed(self.seed, self.next_op)
        self.next_op += 1
        self.attempted += 1
        result = run_op(
            self.cli, self.workload, seed, self.workdir, self.reference.get(str(seed)), before, after
        )
        if result.ok:
            return result.seconds
        self.failed += 1
        print(f"FAILED op seed {seed}: {result.error}", flush=True)
        return None


def probe_setup(workload: Workload, seed: int, directory: Path) -> Optional[float]:
    """Import plus first op in a fresh process; None when it failed."""
    try:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
             "--seed", str(seed), "--probe", str(directory)],
            capture_output=True, text=True, timeout=60,
        )
    except subprocess.TimeoutExpired:
        print("FAILED set-up probe: no result within 60 s", flush=True)
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"FAILED set-up probe: exit {done.returncode}: {done.stderr.strip()[-500:]}", flush=True)
        return None
    return json.loads(lines[-1])["setup_s"]


def end_to_end(run: Run, import_s: float, first_op: Optional[float], started: float, seconds: int) -> Dict[str, float]:
    setups = [] if first_op is None else [import_s + first_op]
    for k in range(SETUP_PROBES):
        run.attempted += 1
        probe = probe_setup(run.workload, run.seed, run.workdir.with_name(f"{run.workdir.name}-probe{k}"))
        if probe is None:
            run.failed += 1
        else:
            setups.append(probe)
    times: List[float] = []
    measure_start = time.perf_counter()
    while (
        time.perf_counter() - measure_start < seconds or len(times) < MIN_OPS
    ) and time.perf_counter() - started < LAST_START_S:
        op_s = run.op()
        if op_s is not None:
            times.append(op_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not times or not setups:
        return {"op_s": 0.0, "setup_s": 0.0, "peak_rss_mb": peak_rss_mb}
    print(f"op_s        = {statistics.median(times):.6f} s   (median of {len(times)} ops{quartiles(times)})")
    print(f"setup_s     = {statistics.median(setups):.6f} s   (median of {len(setups)} set-ups: import + first op)")
    print(f"peak_rss_mb = {peak_rss_mb:.3f} MB  (ru_maxrss of this process)")
    return {"op_s": statistics.median(times), "setup_s": statistics.median(setups), "peak_rss_mb": peak_rss_mb}


def per_layer(run: Run, names: List[str], started: float, seconds: int, trace_file: Path) -> Dict[str, float]:
    import spans

    tracer = spans.Tracer()
    traced: List[Dict[str, float]] = []
    untraced: List[float] = []
    traced_walls: List[float] = []
    nesting: List[str] = []

    def traced_op(track_memory: bool) -> Optional[Dict[str, float]]:
        op_id = run.next_op

        def before():
            if track_memory:
                tracemalloc.start()
            tracer.track_memory = track_memory
            tracer.begin_op(op_id)
            tracer.install()

        def after():
            tracer.remove()
            tracer.end_op()
            tracer.track_memory = False
            if track_memory:
                tracemalloc.stop()

        wall = run.op(before, after)
        if wall is None:
            return None
        nesting.extend(spans.nesting_errors(tracer.op_spans(op_id)))
        metrics = spans.op_metrics(tracer, op_id, wall)
        metrics["wall_s"] = wall
        return metrics

    memory = traced_op(track_memory=True) or {}
    measure_start = time.perf_counter()
    while (
        time.perf_counter() - measure_start < seconds or not traced or not untraced
    ) and time.perf_counter() - started < LAST_START_S:
        op_s = run.op()
        if op_s is not None:
            untraced.append(op_s)
        metrics = traced_op(track_memory=False)
        if metrics is not None:
            traced.append(metrics)
            traced_walls.append(metrics["wall_s"])

    if nesting:
        print(f"FAILED trace check: {len(nesting)} spans do not nest, first: {nesting[0]}")
        run.failed += 1
    if tracer.hook_errors:
        print(f"note: {tracer.hook_errors} counter hooks failed; their counts read 0")
    if not traced or not untraced:
        return dict.fromkeys(names, 0.0)
    result = spans.median_metrics(traced, names)
    for name in names:
        if name.endswith(".peak_mb"):
            result[name] = memory.get(name, 0.0)
    result["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(untraced) - 1
    print(
        f"traced ops {len(traced)} (median wall {statistics.median(traced_walls):.6f} s), "
        f"untraced ops {len(untraced)}, memory-tracked ops 1; spans in {trace_file.relative_to(ROOT)}"
    )
    write_spans(tracer, trace_file)
    return result


def write_spans(tracer, path: Path) -> None:
    import spans

    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
        handle.write("op,name,start,end,parent,self_s\n")
        for op_id in tracer.op_ids():
            op_spans = tracer.op_spans(op_id)
            for span, self_s in zip(op_spans, spans.self_times(op_spans)):
                handle.write(
                    f"{op_id},{span[spans.NAME]},{span[spans.START]:.9f},{span[spans.END]:.9f},"
                    f"{span[spans.PARENT]},{self_s:.9f}\n"
                )


def run_workload(args) -> int:
    started = time.perf_counter()
    workloads.pin_blas_threads()
    cli = workloads.import_xmodal()
    import_s = time.perf_counter() - started
    spec = json.loads(BENCHMARK_FILE.read_text(encoding="utf-8"))
    env = environment()
    print(f"env = {json.dumps(env, sort_keys=True)}", flush=True)
    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{workload.name}-{os.getpid()}"
    run = Run(cli, workload, args.seed, workdir)
    try:
        first_op = run.op()
        if args.trace:
            entries = spec["per_layer"]
            trace_file = OUT_DIR / f"trace-{workload.name}.csv.gz"
            values = per_layer(run, [m["name"] for m in entries], started, args.seconds, trace_file)
        else:
            entries = spec["end_to_end"]
            values = end_to_end(run, import_s, first_op, started, args.seconds)
    finally:
        for path in OUT_DIR.glob(f"{workdir.name}*"):
            shutil.rmtree(path, ignore_errors=True)
    if env["blas_threads"] > env["nproc"]:
        print(f"FAILED: {env['blas_threads']} BLAS threads exceed nproc {env['nproc']}")
        run.failed += 1
    correct = run.failed == 0
    print(f"workload {workload.name} seed {args.seed}: {run.attempted} ops attempted, {run.failed} failed")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in entries}
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_probe(args) -> int:
    started = time.perf_counter()
    workloads.pin_blas_threads()
    cli = workloads.import_xmodal()
    import_s = time.perf_counter() - started
    workload = WORKLOADS[args.workload]
    run = Run(cli, workload, args.seed, Path(args.probe))
    try:
        first_op = run.op()
    finally:
        shutil.rmtree(args.probe, ignore_errors=True)
    if first_op is None:
        return 1
    print(json.dumps({"setup_s": import_s + first_op}))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process; a table of their metrics."""
    results = {}
    worst = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        print(done.stdout, end="", flush=True)
        worst = max(worst, done.returncode)
        lines = done.stdout.strip().splitlines()
        if done.returncode not in (0, 1) or not lines:
            print(done.stderr, end="", file=sys.stderr)
            results[name] = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        else:
            results[name] = json.loads(lines[-1])
    print("\nworkload      metric                                      value        unit")
    for name, result in results.items():
        for metric, entry in result["metrics"].items():
            print(f"{name:<13} {metric:<43} {entry['value']:<12.6g} {entry['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{m}": e for n, r in results.items() for m, e in r["metrics"].items()},
    }))
    return worst or (0 if all(r["correct"] for r in results.values()) else 1)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="xmodal benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.probe:
        return run_probe(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
