"""The benchmark's smoke run: every workload at a tiny size, untraced and
traced, with every tracer hook installed and the count cross-check held."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_run_passes_with_every_hook_installed():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert "smoke: ok" in lines
    workload_lines = [line for line in lines if line.startswith("smoke ") and ": " in line]
    assert len(workload_lines) == 3
    for line in workload_lines:
        assert line.endswith("missing=[]"), line
