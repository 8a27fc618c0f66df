"""The benchmark harness must still run against the package.

`perfbench/run.py --smoke` drives every workload at toy size with the span
tracer installed and fails when a declared span stops firing, so a refactor
that renames or bypasses a traced function fails here too.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
