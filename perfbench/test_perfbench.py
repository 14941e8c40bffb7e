"""Tests of the benchmark itself: span arithmetic, wrapper hygiene, smoke ops.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

cli = workloads.import_xmodal()

TINY_WORLD = (
    "world.n_families = 1\n"
    "world.genera_per_family = 2\n"
    "world.species_per_genus = 2\n"
    "world.audio_per_species = 8\n"
    "world.images_per_species = 4\n"
    "train.epochs = 2\n"
)


def span(name, start, end, parent, op=0):
    return [name, float(start), float(end), parent, op]


def test_self_time_of_nested_and_sibling_spans():
    tree = [
        span("root", 0, 10, -1),
        span("a", 1, 4, 0),
        span("a.child", 2, 3, 1),
        span("b", 5, 9, 0),
        span("b.child", 5.5, 6, 3),
        span("b.child", 7, 8.5, 3),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 2.0, 0.5, 1.5])
    assert spans.nesting_errors(tree) == []


def test_nesting_check_rejects_overlapping_siblings_and_escaping_children():
    overlapping = [
        span("root", 0, 10, -1),
        span("a", 1, 4, 0),
        span("b", 3, 6, 0),
    ]
    errors = spans.nesting_errors(overlapping)
    assert any("overlap" in error for error in errors)
    escaping = [
        span("root", 0, 10, -1),
        span("a", 8, 11, 0),
    ]
    assert any("not inside its parent" in error for error in spans.nesting_errors(escaping))
    overlapping_roots = [span("root", 0, 10, -1), span("other", 9, 12, -1)]
    assert any("overlap" in error for error in spans.nesting_errors(overlapping_roots))


def test_op_metrics_sum_self_time_by_name_and_account_for_the_op():
    tracer = spans.Tracer()
    tracer.begin_op(3)
    tracer.spans.extend(
        [
            span("cli.main", 0, 10, -1, 3),
            span("objective.distill_loss", 1, 2, 0, 3),
            span("objective.distill_loss", 3, 5, 0, 3),
            span(spans.HOOK_SPAN, 5, 6, 0, 3),
        ]
    )
    tracer.add("objective.distill_loss.rows", 64)
    tracer.end_op()
    metrics = spans.op_metrics(tracer, 3, wall_s=10.0)
    assert metrics["objective.distill_loss.self_s"] == pytest.approx(3.0)
    assert metrics["objective.distill_loss.calls"] == 2
    assert metrics["objective.distill_loss.rows"] == 64
    assert metrics["cli.main.self_s"] == pytest.approx(6.0)
    assert metrics["trace.accounted_frac"] == pytest.approx(0.9)


def _namespace_snapshot():
    from xmodal.evaluation import RankedList

    snapshot = {
        (name, key): value
        for name, module in sys.modules.items()
        if module is not None and (name == "xmodal" or name.startswith("xmodal."))
        for key, value in vars(module).items()
    }
    snapshot[("RankedList", "__init__")] = RankedList.__dict__["__init__"]
    return snapshot


def test_install_and_remove_restore_every_attribute():
    import xmodal.baselines
    import xmodal.trainer
    from xmodal.evaluation import RankedList

    before = _namespace_snapshot()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert xmodal.trainer.distill_loss is not before[("xmodal.trainer", "distill_loss")]
        assert xmodal.baselines.distill_loss is xmodal.trainer.distill_loss
        assert cli.evaluate_trained is not before[("xmodal.cli", "evaluate_trained")]
        assert xmodal.baselines.RankedList.__init__ is not before[("RankedList", "__init__")]
        assert xmodal.trainer.make_optimizer is not before[("xmodal.trainer", "make_optimizer")]
    finally:
        tracer.remove()
    after = _namespace_snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert RankedList.__dict__["__init__"] is before[("RankedList", "__init__")]


def tiny(workload):
    """The workload on a 4-species world, two epochs of training."""
    extra = workload.config_text.replace("train.epochs = 150\n", "")
    return dataclasses.replace(workload, config_text=TINY_WORLD + extra)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_world_op_passes_its_output_check_traced_and_untraced(name, tmp_path):
    workload = tiny(workloads.WORKLOADS[name])
    first = workloads.run_op(cli, workload, 3, tmp_path / "a", None)
    assert first.ok, first.error
    assert set(first.digests) == set(workload.outputs)

    again = workloads.run_op(cli, workload, 3, tmp_path / "b", first.digests)
    assert again.ok and again.error == ""

    tracer = spans.Tracer()

    def before():
        tracer.begin_op(0)
        tracer.install()

    def after():
        tracer.remove()
        tracer.end_op()

    traced = workloads.run_op(cli, workload, 3, tmp_path / "c", first.digests, before, after)
    assert traced.ok, traced.error
    op_spans = tracer.op_spans(0)
    assert op_spans[0][spans.NAME] == "cli.main" and op_spans[0][spans.PARENT] == -1
    assert spans.nesting_errors(op_spans) == []
    metrics = spans.op_metrics(tracer, 0, traced.seconds)
    assert 0.5 < metrics["trace.accounted_frac"] <= 1.0
    assert tracer.hook_errors == 0
    if workload.command != "eval":
        assert metrics["trainer.optimizer_step.calls"] > 0
    if workload.command != "train":
        assert metrics["evaluation.RankedList.calls"] > 0
        assert 0 < metrics["evaluation.sorted_used_ratio"] <= 1
        assert 0 < metrics["baselines.cascade.distinct_ratio"] <= 1

    wrong = {key: "0" * 64 for key in first.digests}
    broken = workloads.run_op(cli, workload, 3, tmp_path / "d", wrong)
    assert not broken.ok and "digest mismatch" in broken.error


def test_reference_covers_every_pool_seed_and_the_readme_summary():
    reference = workloads.load_reference()
    for workload in workloads.WORKLOADS.values():
        table = reference[workload.name]
        assert sorted(table, key=int) == [str(seed) for seed in range(workload.seed_pool)]
        assert all(set(digests) == set(workload.outputs) for digests in table.values())
    summary = reference["default_run"]["7"]["summary.txt"]
    assert summary.startswith("0067f866022d7c98") and summary.endswith("efc27b5")
    assert reference["default_run"]["7"]["params.xmpb"].startswith("8c75e369a1cb4c25")


def test_op_seeds_start_at_the_workload_seed_and_cycle_the_pool():
    workload = workloads.WORKLOADS["default_run"]
    seeds = [workload.op_seed(7, i) for i in range(workload.seed_pool)]
    assert seeds[0] == 7
    assert sorted(seeds) == list(range(workload.seed_pool))


def test_benchmark_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "default_run", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
