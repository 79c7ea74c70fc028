"""Smoke tests of the example scripts, each run as its own process with small arguments."""

import csv
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_mixture_sweep_prints_and_writes_one_row_per_step(tmp_path):
    out = tmp_path / "sweep.csv"
    result = _run("mixture_sweep.py", "--steps", "3", "--controls", "2", "--csv", str(out))
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == 1 + 3 + 2  # header, one row per step, a blank line and "wrote"
    assert "activation" in lines[3]  # only r = 1 activates
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["r", "example_value", "min_control_value"] and len(rows) == 1 + 3
    assert abs(float(rows[-1][1]) + 0.103375) < 1e-4


def test_mixture_sweep_rejects_counts_below_one_with_a_usage_error():
    for args in (("--controls", "0"), ("--controls", "-3"), ("--steps", "0")):
        result = _run("mixture_sweep.py", *args)
        assert result.returncode == 2, (args, result.stderr)
        assert f"error: argument {args[0]}" in result.stderr and "Traceback" not in result.stderr
        assert result.stdout == ""


def test_seesaw_search_rejects_out_of_range_arguments_with_a_usage_error():
    for args in (("--restarts", "0"), ("--restarts", "-2"), ("--seed", "-1")):
        result = _run("seesaw_search.py", *args)
        assert result.returncode == 2, (args, result.stderr)
        assert f"error: argument {args[0]}" in result.stderr and "Traceback" not in result.stderr
        assert result.stdout == ""


def test_seesaw_search_prints_the_bracket():
    result = _run("seesaw_search.py", "--restarts", "2")
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == 7
    assert "(2 restarts" in lines[3] and lines[-1].startswith("  quantum minimum within")
