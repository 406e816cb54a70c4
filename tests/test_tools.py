"""The measuring scripts in ``tools/`` run on this checkout and print their headers.

``profile_level.py`` builds its ops through ``bench/workloads.py``, which
makes its measures with ``Measure("bosonic")`` and ``Measure("fermionic")``,
so this also checks the benchmark's use of the measure constructor.
"""
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# command line after the interpreter -> the first line it prints
TOOLS = {
    "tools/count_lines.py": "module        lines   code",
    "tools/profile_catalog.py --n-max 6": "Fraction.__new__ calls",
    "tools/profile_level.py --repeat 1": "seed 1, fastest of 1 per op, median per kind",
}


@pytest.mark.parametrize("command", sorted(TOOLS))
def test_tool_runs_and_prints_its_header(command):
    done = subprocess.run(
        [sys.executable, *command.split()], cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0].startswith(TOOLS[command])
