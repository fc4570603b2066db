"""Smoke tests: the example scripts run to exit 0 against the library
as it is, and the benchmark harness's own suite passes, so an API change
that breaks either fails here."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import lift

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def lift_env():
    return dict(os.environ, PYTHONPATH=str(Path(lift.__file__).resolve().parents[1]))


@pytest.mark.parametrize("script,args", [
    ("occupancy_macs_sweep.py", ["--occupancies", "0.01"]),
    ("synthetic_end_to_end.py", ["--points", "2000", "--workdir", "out"]),
])
def test_example_script_runs(tmp_path, script, args):
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *args], cwd=tmp_path,
                          env=lift_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_peak_memory_names_the_stages_that_raise_the_peak(tmp_path):
    proc = subprocess.run([sys.executable, str(SCRIPTS / "peak_memory.py"), "--points", "3000",
                           "--clouds", "2", "--threads", "1", "--workdir", "out"],
                          cwd=tmp_path, env=lift_env(), capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for mode in ("float", "int8"):
        head = lines.index(next(line for line in lines if line.startswith(f"{mode} ")))
        assert "engine loaded at" in lines[head]
        assert [line.split(":")[0].strip() for line in lines[head + 1:head + 3]] == \
            ["cloud 0", "cloud 1"]
        # a fresh process: the first cloud raises the peak above the loaded engine
        assert "raised most by none" not in lines[head + 1]
    assert (tmp_path / "out" / "int8.lifw").exists()


def test_perfbench_suite_passes():
    # perfbench's tests pin names the engine must keep (the functions its
    # tracer rebinds, the per-cloud call counts, the seed-0 digests)
    proc = subprocess.run([sys.executable, "-m", "pytest", "perfbench", "-q",
                           "-p", "no:cacheprovider"], cwd=ROOT, env=lift_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
