"""Smoke test: each demo runs to completion from a source checkout."""
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# a numpy RuntimeWarning on a subprocess's stderr fails it, as pyproject's
# filterwarnings fails an in-process test
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
           PYTHONWARNINGS="error::RuntimeWarning")


@pytest.mark.parametrize("demo", [
    "01_complexity_scoring.py", "02_text_features.py",
    "03_synthetic_workload.py", "04_train_and_evaluate.py"])
def test_demo_exits_zero(demo):
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          cwd=ROOT, env=ENV, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.skipif(shutil.which("bash") is None, reason="needs bash")
def test_cli_walkthrough_exits_zero(tmp_path):
    """The shell walkthrough runs the `slotcast` command, here a shim on
    PATH that runs the CLI module from the source tree, and lists the
    three evaluation reports last."""
    shim = tmp_path / "slotcast"
    shim.write_text(
        f'#!/bin/sh\nexec "{sys.executable}" -m slotcast.cli "$@"\n')
    shim.chmod(0o755)
    env = dict(ENV, PATH=f"{tmp_path}{os.pathsep}{os.environ.get('PATH', '')}")
    demo = ROOT / "demos" / "05_cli_walkthrough.sh"
    proc = subprocess.run(["bash", str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-3:] == [
        "plotdata.csv", "report.json", "report.txt"], proc.stdout
