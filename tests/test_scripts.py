"""Smoke tests of the scripts in ``scripts/``, one or more per script:
the sweep driver runs end to end on the package API and prints one row
per run, the reference replay names each op whose outputs differ, and
the A/B script alternates two trees' ops in one process. A script that
no test here loads fails ``test_every_script_has_a_smoke_test``."""

import importlib.util
import math
import re
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


def test_sweep_over_seeds_prints_one_row_per_seed(capsys):
    script = load_script("sweep")
    assert script.main(["--seeds", "0-0"]) == 0
    out = capsys.readouterr().out
    (seed_row,) = rows(out, {str(seed) for seed in range(10)})
    assert seed_row[0] == "0" and len(seed_row) == 1 + len(script.COLUMNS)
    assert all(0.0 <= float(value) <= 1.0 for value in seed_row[1:7])  # the report keys
    mean, std = rows(out, {"mean", "std"})
    assert mean[1:] == seed_row[1:]
    assert set(std[1:]) == {"0.0000"}  # one seed has no spread


def test_sweep_over_modes_and_budgets_prints_one_row_each(capsys, tmp_path):
    script = load_script("sweep")
    # The base config sets a swept key; the sweep's setting replaces its value.
    (tmp_path / "base.txt").write_text("train.epochs = 3\n")
    modes = ("linear_head_only", "mlp_encoder_plus_head")
    assert script.main(["--config", str(tmp_path / "base.txt"), "--set", "adapter.mode=" + ",".join(modes),
                        "--set", "train.epochs=1"]) == 0
    mode_rows = rows(capsys.readouterr().out, set(modes))
    assert [row[:3] for row in mode_rows] == [[mode, "1", seed] for mode in modes for seed in ("7", "mean", "std")]
    for row in mode_rows[::3]:
        retrieval, _, _, _, zero_shot, _, final_loss, steps = map(float, row[3:])
        assert 0.0 <= retrieval <= 1.0 and 0.0 <= zero_shot <= 1.0
        assert math.isfinite(final_loss) and final_loss >= 0.0 and steps == 23  # one epoch of 23 batches
    assert script.main(["--seeds", "0-1", "--set", "world.seed=3"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_sweep_config_errors_match_the_cli(capsys, tmp_path):
    # The sweep reads and sets keys through runconfig, as the CLI does, so the errors are the CLI's.
    script = load_script("sweep")
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"world.seed = 7\n# caf\xff\n")
    assert script.main(["--config", str(bad), "--seeds", "0-0"]) == 2
    assert capsys.readouterr().err == f"error: config {bad} is not UTF-8 text: byte 0xff at offset 20\n"
    assert script.main(["--set", "world.speed=1,2"]) == 2
    assert capsys.readouterr().err == "error: setting: unknown config key 'world.speed'\n"
    assert script.main(["--set", "train.tau=0"]) == 2
    assert capsys.readouterr().err.startswith("error: setting: train.tau: ")


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
    # Then each side's traced peak of its untimed eval command: a few MB.
    for side, line in zip(script.SIDES, out[5:7]):
        match = re.fullmatch(rf"{side}  warm-up command traced peak ([0-9]+\.[0-9]{{3}}) MB", line)
        assert match and 1.0 < float(match[1]) < 20.0, line


def test_every_script_has_a_smoke_test():
    called = set(re.findall(r'load_script\("(\w+)"\)', Path(__file__).read_text(encoding="utf-8")))
    assert {path.stem for path in SCRIPTS.glob("*.py")} - called == set()
