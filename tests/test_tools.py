"""The measuring scripts in ``tools/`` run on this checkout, print their headers,
end quietly when their stdout is closed and refuse bad arguments as usage errors.

``profile_level.py`` builds its ops through ``bench/workloads.py``, which
makes its measures with ``Measure("bosonic")`` and ``Measure("fermionic")``,
so this also checks the benchmark's use of the measure constructor.
"""
import os
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


@pytest.mark.parametrize("command", sorted(TOOLS))
def test_tool_ends_quietly_on_a_closed_stdout(command):
    # the pipe's read end is closed before the tool starts, so its buffered output,
    # flushed at exit at the latest, always meets a closed pipe
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, *command.split()], cwd=ROOT, stdout=write,
                              stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write)
    assert "Traceback" not in done.stderr and "BrokenPipeError" not in done.stderr, done.stderr


# bad arguments, each refused before any work: {missing} is a directory that does not exist,
# {cpu} a CPU this process may not run on
BAD_COMMANDS = [
    "tools/count_lines.py {missing}",
    "tools/profile_level.py --repeat 0",
    "tools/profile_level.py --repeat -3",
    "tools/profile_level.py --cpu {cpu}",
    "tools/profile_level.py --cpu -1",
    "tools/profile_catalog.py --n-max 61",
    "tools/profile_catalog.py --n-max -1",
]


@pytest.mark.parametrize("command", BAD_COMMANDS)
def test_tool_refuses_a_bad_argument_with_one_usage_error(command, tmp_path):
    line = command.format(missing=tmp_path / "missing", cpu=max(os.sched_getaffinity(0)) + 1)
    done = subprocess.run(
        [sys.executable, *line.split()], cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr, done.stderr
    errors = [row for row in done.stderr.splitlines() if "error:" in row]
    assert len(errors) == 1 and errors[0] == done.stderr.splitlines()[-1], done.stderr
    assert done.stdout == ""
