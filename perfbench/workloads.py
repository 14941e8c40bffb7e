"""The benchmark's workloads and the op that each of them repeats.

An op is one ``xmodal`` CLI invocation, made in-process through
``xmodal.cli.main`` with stdout and stderr captured, in a working
directory of its own. Each op takes ``--seed N``; a run cycles through a
fixed pool of seeds, starting at the workload seed, so consecutive ops
never repeat a config the way a sweep never does. Every op's output
files are hashed and compared with the reference digests recorded for
its seed in ``reference.json``: an exception, a non-zero exit code or a
digest mismatch makes the op fail.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import shutil
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_FILE = HERE / "reference.json"
CONFIG_NAME = "xmodal.cfg"
# The default config's output directory: config_hash covers it, so keeping
# it is what lets default_run seed 7 reproduce the README digests.
OUTPUT_DIR = Path("runs/default")

# ROADMAP's 4x-species world with twice the clips and images per species:
# 192 species, 1920 eval clips x 960 eval images. (Its 4x-clips world, at
# about 10 s per op, fits too few ops in a run to give a steady median.)
# One epoch is the short schedule that trains the params blob eval reads.
EVAL_WIDE_CONFIG = (
    "world.n_families = 12\n"
    "world.audio_per_species = 40\n"
    "world.images_per_species = 20\n"
    "train.epochs = 1\n"
)


@dataclass(frozen=True)
class Workload:
    """One kind of op, the config it runs under and the files it checks."""

    name: str
    command: str
    config_text: str
    outputs: Tuple[str, ...]
    seed_pool: int
    fixture: Optional[str] = None

    def argv(self, command: str, seed: int) -> List[str]:
        config = ["--config", CONFIG_NAME] if self.config_text else []
        return [command, *config, "--seed", str(seed)]

    def op_seed(self, workload_seed: int, op_index: int) -> int:
        """Seed of the op at ``op_index``; op 0 uses the workload seed itself."""
        return (workload_seed + op_index) % self.seed_pool


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="default_run",
            command="run",
            config_text="",
            outputs=("summary.txt", "params.xmpb"),
            seed_pool=64,
        ),
        Workload(
            name="train_long",
            command="train",
            config_text="train.epochs = 150\n",
            outputs=("params.xmpb", "train_log.txt"),
            seed_pool=32,
        ),
        Workload(
            name="eval_wide",
            command="eval",
            config_text=EVAL_WIDE_CONFIG,
            outputs=("summary.txt", "reports.txt"),
            seed_pool=16,
            fixture="train",
        ),
    )
}


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """One BLAS thread: steadier timings on a shared box, never above nproc.

    Takes effect only before numpy is first imported.
    """
    for variable in BLAS_THREAD_VARIABLES:
        os.environ[variable] = "1"


def import_xmodal(root: Path = ROOT):
    """Import ``xmodal.cli`` from ``root/src`` and nowhere else."""
    src = (root / "src").resolve()
    if not (src / "xmodal" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no xmodal sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import xmodal.cli

    if Path(xmodal.cli.__file__).resolve().parent.parent != src:
        raise SystemExit(f"perfbench: imported xmodal from {xmodal.cli.__file__}, not {src}")
    return xmodal.cli


def load_reference() -> Dict[str, Dict[str, Dict[str, str]]]:
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


@dataclass
class OpResult:
    seconds: float
    ok: bool
    digests: Dict[str, str]
    error: str = ""


@contextlib.contextmanager
def working_directory(path: Path):
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


def _call(cli, argv: List[str]) -> Tuple[int, float, str]:
    """Run ``xmodal argv`` in-process; (exit code, seconds, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        started = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - started
    return code, seconds, err.getvalue()


def run_op(
    cli,
    workload: Workload,
    seed: int,
    workdir: Path,
    reference: Optional[Mapping[str, str]],
    before=None,
    after=None,
) -> OpResult:
    """One timed op in ``workdir``, checked against ``reference``.

    The output directory is cleared and the fixture (if any) runs before
    the clock starts. ``before`` and ``after`` run just outside the
    timed call, after the fixture; the tracer uses them to switch on and
    off. With ``reference=None`` the op only has to exit 0.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    with working_directory(workdir):
        out = OUTPUT_DIR
        shutil.rmtree(out, ignore_errors=True)
        if workload.config_text:
            Path(CONFIG_NAME).write_text(workload.config_text, encoding="utf-8")
        seconds = 0.0
        try:
            if workload.fixture is not None:
                code, _, err = _call(cli, workload.argv(workload.fixture, seed))
                if code != 0:
                    return OpResult(0.0, False, {}, f"fixture exited {code}: {err.strip()}")
            gc.collect()
            if before is not None:
                before()
            try:
                code, seconds, err = _call(cli, workload.argv(workload.command, seed))
            finally:
                if after is not None:
                    after()
        except Exception:
            return OpResult(seconds, False, {}, traceback.format_exc(limit=4))
        if code != 0:
            return OpResult(seconds, False, {}, f"exited {code}: {err.strip()}")
        digests = {}
        for name in workload.outputs:
            path = out / name
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else "missing"
    if reference is None:
        return OpResult(seconds, "missing" not in digests.values(), digests)
    wrong = sorted(name for name in workload.outputs if digests[name] != reference.get(name))
    if wrong:
        return OpResult(seconds, False, digests, f"seed {seed}: digest mismatch in {', '.join(wrong)}")
    return OpResult(seconds, True, digests)
