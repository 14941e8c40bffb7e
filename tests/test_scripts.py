"""Smoke tests of the scripts in ``scripts/``: each sweep runs end to end
on the package API and prints one row per configuration it sweeps, the
reference replay names each op whose outputs differ, and the A/B script
alternates two trees' ops in one process."""

import importlib.util
import math
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def rows(text, first_fields):
    return [line.split() for line in text.splitlines() if line.split()[:1] and line.split()[0] in first_fields]


def test_seed_stability_prints_one_row_per_seed(capsys):
    script = load_script("seed_stability")
    assert script.main(["--seeds", "1"]) == 0
    out = capsys.readouterr().out
    seed_rows = rows(out, {str(seed) for seed in range(10)})
    assert [row[0] for row in seed_rows] == ["0"]
    assert len(seed_rows[0]) == 1 + len(script.METRICS)
    assert all(0.0 <= float(value) <= 1.0 for value in seed_rows[0][1:])
    summary = rows(out, {name for name, _ in script.METRICS})
    assert [row[0] for row in summary] == [name for name, _ in script.METRICS]
    assert all(row[-1] == "0.0000" for row in summary)  # one seed has no spread


def test_adapter_ablation_prints_one_row_per_mode(capsys):
    script = load_script("adapter_ablation")
    assert script.main(["--epochs", "1"]) == 0
    mode_rows = rows(capsys.readouterr().out, {"linear_head_only", "mlp_encoder_plus_head"})
    assert [row[:2] for row in mode_rows] == [["linear_head_only", "1"], ["mlp_encoder_plus_head", "1"]]
    for row in mode_rows:
        retrieval, zero_shot, final_loss = map(float, row[2:])
        assert 0.0 <= retrieval <= 1.0 and 0.0 <= zero_shot <= 1.0
        assert math.isfinite(final_loss) and final_loss >= 0.0


def test_verify_reference_names_the_op_that_differs(capsys, monkeypatch):
    # The script imports perfbench/workloads.py as "workloads"; undo that.
    monkeypatch.setitem(sys.modules, "workloads", None)
    script = load_script("verify_reference")
    assert script.main(["eval_wide:3"]) == 0
    assert capsys.readouterr().out == "1 of 1 reference ops match\n"
    reference = script.workloads.load_reference()
    reference["eval_wide"]["3"]["reports.txt"] = "0" * 64
    monkeypatch.setattr(script.workloads, "load_reference", lambda: reference)
    assert script.main(["eval_wide:3"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "eval_wide seed 3: digest mismatch in reports.txt",
        "0 of 1 reference ops match",
    ]


def test_interleave_ab_runs_one_round_of_the_repo_against_itself(capsys, monkeypatch):
    # The script imports perfbench/workloads.py as "workloads" and each
    # tree as its own package alias; undo both.
    monkeypatch.setitem(sys.modules, "workloads", None)
    root = SCRIPTS.parent
    script = load_script("interleave_ab")
    try:
        assert script.main([str(root), str(root), "eval_wide", "--rounds", "1", "--seed", "3"]) == 0
        old_cli, new_cli = (sys.modules[f"xmodal_{side}.cli"] for side in script.SIDES)
        assert old_cli is not new_cli
        assert Path(old_cli.__file__).resolve() == Path(new_cli.__file__).resolve() == root / "src/xmodal/cli.py"
    finally:
        for name in [name for name in sys.modules if name.startswith(("xmodal_old", "xmodal_new"))]:
            del sys.modules[name]
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "eval_wide seed 3: 1 rounds timed, 0 ops failed"
    assert [line.split()[:2] for line in out[1:3]] == [["old", "median"], ["new", "median"]]
    assert out[3].startswith("median paired ratio new/old = ")
    assert out[4] in ("new faster in 0 of 1 rounds", "new faster in 1 of 1 rounds")
