"""The benchmark's calls into the package still run and pass its gate.

``perfbench/run.py`` calls the package's functions by name, and its tracer
patches the methods that ``perfbench/spans.py`` names with ``getattr``, so a
renamed or reshaped function breaks the benchmark without failing any other
test.  Each case runs the strata workload at its tiny size for one second as
a subprocess, untraced and traced, and reads the verdict off the last line.
The runs write only under the ignored ``.perfbench/`` work directory.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("trace", [0, 1])
def test_strata_workload_passes_its_gate(trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "strata",
           "--tiny", "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, out.stdout
