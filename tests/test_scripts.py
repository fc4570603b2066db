"""Smoke test: the example scripts run to exit 0 against the library
as it is, so an API change that breaks them fails here."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import lift

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script,args", [
    ("occupancy_macs_sweep.py", ["--occupancies", "0.01"]),
    ("synthetic_end_to_end.py", ["--points", "2000", "--workdir", "out"]),
])
def test_example_script_runs(tmp_path, script, args):
    env = dict(os.environ, PYTHONPATH=str(Path(lift.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *args], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
